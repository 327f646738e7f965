package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"kbtim"
)

// gatedHandler simulates a backend process that is down: while !up every
// request gets a 503, which the router reads as an unreachable replica (the
// startup census force-opens its breaker, probes fail). Flipping up "brings
// the process back" on the same address — something a closed httptest server
// cannot do.
type gatedHandler struct {
	inner http.Handler
	up    atomic.Bool
}

func (h *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.up.Load() {
		http.Error(w, "backend down", http.StatusServiceUnavailable)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// replicatedCluster is the failover topology: a single-engine truth server
// plus a router over 2 shards x 2 replicas, both replicas of a shard
// serving the SAME engine (byte-identical files by construction). Replica 1
// of every shard sits behind a gate so tests can take it down and bring it
// back.
type replicatedCluster struct {
	single *httptest.Server
	router *httptest.Server
	fo     *fanout
	// replicas[shard][replica]; gates[shard] gates replicas[shard][1].
	replicas [][]*httptest.Server
	gates    []*gatedHandler
}

func fastBreaker() breakerConfig {
	// Near-zero backoff so tests can drive reprobeOnce without sleeping out
	// real jittered schedules.
	return breakerConfig{failures: 3, minBackoff: time.Millisecond, maxBackoff: 2 * time.Millisecond}
}

func startReplicatedCluster(t *testing.T, gate1Down bool) *replicatedCluster {
	t.Helper()
	const shards = 2
	ds, opts, rrPath, irrPath := shardedFixture(t, shards)
	c := &replicatedCluster{}

	be1, close1, err := openBackend(ds, opts, rrPath, irrPath, 1, kbtim.ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close1() })
	c.single = httptest.NewServer(NewServer(be1, 4).Handler())
	t.Cleanup(c.single.Close)

	groups := make([][]string, shards)
	for i := 0; i < shards; i++ {
		be, closeBE, err := openBackend(ds, opts,
			kbtim.ShardIndexPath(rrPath, i), kbtim.ShardIndexPath(irrPath, i), 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		h := NewServer(be, 4).Handler()
		r0 := httptest.NewServer(h)
		t.Cleanup(r0.Close)
		gate := &gatedHandler{inner: h}
		gate.up.Store(!gate1Down)
		r1 := httptest.NewServer(gate)
		t.Cleanup(r1.Close)
		c.replicas = append(c.replicas, []*httptest.Server{r0, r1})
		c.gates = append(c.gates, gate)
		groups[i] = []string{r0.URL, r1.URL}
	}
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.decBudget = 1 << 20
	cfg.queryPar = 2
	cfg.healthTTL = 0 // live verdicts; tests flip backends up and down
	cfg.breaker = fastBreaker()
	cfg.noProbeLoop = true // recovery is driven explicitly via reprobeOnce
	c.fo, err = openFanout(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.fo.Close() })
	c.router = httptest.NewServer(NewServer(c.fo, 4).Handler())
	t.Cleanup(c.router.Close)
	return c
}

// assertRouterParity runs the full query matrix against the router and the
// single-engine truth and requires byte-identical seeds, marginals, and
// spreads — the invariant failover must never bend.
func assertRouterParity(t *testing.T, c *replicatedCluster, phase string) {
	t.Helper()
	queries := []queryRequest{
		{Topics: []int{0}, K: 3},
		{Topics: []int{3}, K: 2},
		{Topics: []int{0, 1}, K: 3},
		{Topics: []int{2, 5, 7}, K: 4},
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5},
	}
	for _, strategy := range []string{"rr", "irr"} {
		for _, q := range queries {
			q.Strategy = strategy
			want, resp := postQuery(t, c.single, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: single %s %v: %v", phase, strategy, q.Topics, resp.Status)
			}
			got, resp := postQuery(t, c.router, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: router %s %v: %v", phase, strategy, q.Topics, resp.Status)
			}
			if !reflect.DeepEqual(got.Seeds, want.Seeds) ||
				!reflect.DeepEqual(got.Marginals, want.Marginals) ||
				got.EstSpread != want.EstSpread || got.NumRRSets != want.NumRRSets {
				t.Fatalf("%s: router %s %v: (%v, %v, %v, %d) != single (%v, %v, %v, %d)",
					phase, strategy, q.Topics,
					got.Seeds, got.Marginals, got.EstSpread, got.NumRRSets,
					want.Seeds, want.Marginals, want.EstSpread, want.NumRRSets)
			}
		}
	}
}

func routerStats(t *testing.T, c *replicatedCluster) statsResponse {
	t.Helper()
	resp, err := http.Get(c.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRouterFailoverParity is the kill-a-replica invariant in-process: with
// 2 replicas per shard, killing one replica of EVERY shard mid-run leaves
// zero failed client queries, failovers > 0, and results byte-identical to
// a single engine.
func TestRouterFailoverParity(t *testing.T) {
	c := startReplicatedCluster(t, false)
	assertRouterParity(t, c, "healthy")

	// Kill replica 1 of every shard (hard close: connections refused).
	for _, g := range c.gates {
		g.up.Store(false)
	}
	for _, reps := range c.replicas {
		reps[1].Close()
	}
	assertRouterParity(t, c, "degraded")

	stats := routerStats(t, c)
	if stats.Failed != 0 {
		t.Fatalf("killing a replica failed %d client queries, want 0", stats.Failed)
	}
	if stats.Router == nil {
		t.Fatal("/stats has no router section")
	}
	if stats.Router.Failovers == 0 {
		t.Fatalf("no failovers counted after killing a replica: %+v", stats.Router)
	}
	if stats.Router.Retries == 0 {
		t.Fatal("no retries counted after killing a replica")
	}

	// The degraded-/healthz contract: every shard still has a live replica,
	// so the router must keep advertising healthy.
	resp, err := http.Get(c.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with one live replica per shard: %v, want 200", resp.Status)
	}

	// Enough consecutive failures must have opened the dead replicas'
	// breakers; drive a few more queries to be sure, then check.
	for i := 0; i < 3; i++ {
		assertRouterParity(t, c, "post-breaker")
	}
	stats = routerStats(t, c)
	if stats.Router.Degraded == 0 {
		t.Fatalf("dead replicas never tripped their breakers: %+v", stats.Router.Backends)
	}

	// Kill the OTHER replica of shard 0 too: that shard is now unservable
	// and /healthz must say so.
	c.replicas[0][0].Close()
	if resp, err = http.Get(c.router.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a whole shard down: %v, want 503", resp.Status)
	}
}

// TestRouterDegradedStartupAndRecovery: a replica that is down when the
// router starts no longer aborts openFanout — the router starts degraded,
// serves correct results, and re-admits the replica (validated, breaker
// closed) once the probe loop sees it healthy again.
func TestRouterDegradedStartupAndRecovery(t *testing.T) {
	c := startReplicatedCluster(t, true) // replica 1 of every shard down at open
	stats := routerStats(t, c)
	if stats.Router.Degraded != 2 {
		t.Fatalf("degraded = %d at startup with 2 dead replicas, want 2", stats.Router.Degraded)
	}
	for _, b := range stats.Router.Backends {
		if b.Breaker == breakerClosed && !b.Validated {
			t.Fatalf("unvalidated replica %s has a closed breaker", b.URL)
		}
	}
	assertRouterParity(t, c, "degraded-start")

	// Bring the gated replicas back and drive the probe loop by hand until
	// they are re-admitted (validation + breaker close).
	for _, g := range c.gates {
		g.up.Store(true)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.fo.reprobeOnce()
		if routerStats(t, c).Router.Degraded == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never re-admitted: %+v", routerStats(t, c).Router.Backends)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats = routerStats(t, c)
	for _, b := range stats.Router.Backends {
		if !b.Validated || b.Breaker != breakerClosed {
			t.Fatalf("re-admitted replica %s: validated=%v breaker=%q", b.URL, b.Validated, b.Breaker)
		}
	}
	assertRouterParity(t, c, "recovered")

	// A recovered replica must actually take traffic again: proxy co-located
	// queries until every replica of shard-owning groups has served some.
	for i := 0; i < 4; i++ {
		for w := 0; w < 8; w++ { // single keywords are always co-located on their owner
			if _, resp := postQuery(t, c.router, queryRequest{Topics: []int{w}, K: 2, Strategy: "irr"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("post-recovery query on %d: %v", w, resp.Status)
			}
		}
	}
	for gi, g := range c.fo.groups {
		for ri, n := range g.nodes {
			if ri == 1 && n.proxied.Load() == 0 {
				t.Fatalf("recovered replica %d of shard %d never proxied a query", ri, gi)
			}
		}
	}
}

// TestRouterRefusesShardWithNoLiveReplica: degraded startup has a floor —
// a shard whose EVERY replica is down cannot be served at all, and
// openFanout must say so instead of starting a router that would fail its
// keyword subset.
func TestRouterRefusesShardWithNoLiveReplica(t *testing.T) {
	const shards = 2
	ds, opts, rrPath, irrPath := shardedFixture(t, shards)
	groups := make([][]string, shards)
	for i := 0; i < shards; i++ {
		be, closeBE, err := openBackend(ds, opts,
			kbtim.ShardIndexPath(rrPath, i), kbtim.ShardIndexPath(irrPath, i), 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		srv := httptest.NewServer(NewServer(be, 4).Handler())
		if i == 0 {
			srv.Close() // shard 0: the only replica is dead
		} else {
			t.Cleanup(srv.Close)
		}
		groups[i] = []string{srv.URL}
	}
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.proxyTimeout = 5 * time.Second
	cfg.noProbeLoop = true
	if _, err := openFanout(groups, cfg); err == nil {
		t.Fatal("openFanout started with a shard that has no live replica")
	}
}

// TestRouterReplicaGroupProxiesAndFailsOpen pins how the router replicates:
// one shard served by a replica group. Over a 1-shard router on a|b (both
// serving the full index), healthy traffic is spread over both replicas,
// an open breaker diverts every query to the survivor, and with every
// breaker open the router still tries a replica rather than failing the
// query — each answer equal to a single engine's.
func TestRouterReplicaGroupProxiesAndFailsOpen(t *testing.T) {
	ds, opts, rrPath, irrPath := shardedFixture(t, 2)
	serve := func() *httptest.Server {
		be, closeBE, err := openBackend(ds, opts, rrPath, irrPath, 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		srv := httptest.NewServer(NewServer(be, 4).Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	single, a, b := serve(), serve(), serve()
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.breaker = fastBreaker()
	cfg.noProbeLoop = true
	fo, err := openFanout([][]string{{a.URL, b.URL}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })
	router := httptest.NewServer(NewServer(fo, 4).Handler())
	t.Cleanup(router.Close)
	na, nb := fo.groups[0].nodes[0], fo.groups[0].nodes[1]

	query := func(i int) {
		t.Helper()
		q := queryRequest{Topics: []int{i % 8, (i + 3) % 8}, K: 3, Strategy: []string{"rr", "irr"}[i%2]}
		want, resp := postQuery(t, single, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %v: %v", q, resp.Status)
		}
		got, resp := postQuery(t, router, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router %v: %v", q, resp.Status)
		}
		if !reflect.DeepEqual(got.Seeds, want.Seeds) || !reflect.DeepEqual(got.Marginals, want.Marginals) ||
			got.EstSpread != want.EstSpread {
			t.Fatalf("router %v: (%v, %v, %v) != single (%v, %v, %v)", q,
				got.Seeds, got.Marginals, got.EstSpread, want.Seeds, want.Marginals, want.EstSpread)
		}
	}

	for i := 0; i < 10; i++ {
		query(i)
	}
	if na.proxied.Load() == 0 || nb.proxied.Load() == 0 {
		t.Fatalf("healthy group proxied a=%d b=%d, want both > 0", na.proxied.Load(), nb.proxied.Load())
	}

	na.brk.forceOpen(time.Now(), fo.brkCfg)
	beforeA, beforeB := na.proxied.Load(), nb.proxied.Load()
	for i := 10; i < 20; i++ {
		query(i)
	}
	if da, db := na.proxied.Load()-beforeA, nb.proxied.Load()-beforeB; da != 0 || db != 10 {
		t.Fatalf("with a's breaker open: a proxied %d, b proxied %d; want 0 and 10", da, db)
	}

	nb.brk.forceOpen(time.Now(), fo.brkCfg)
	query(20)
}
