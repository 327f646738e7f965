package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kbtim"
	"kbtim/internal/artifact"
	"kbtim/internal/irrindex"
	"kbtim/internal/remote"
)

// routerCluster is the full cross-node topology in-process: two backend
// Servers, each a single engine over one hash shard's RR+IRR files (the
// exact processes the CI smoke runs as real binaries), a fanout router
// over their URLs, and — for the parity matrix — a single-engine and an
// in-process Sharded deployment over the same index payloads, every one
// behind the same HTTP handler stack.
type routerCluster struct {
	single  *httptest.Server
	sharded *httptest.Server
	router  *httptest.Server
	nodes   []*httptest.Server
	fo      *fanout
}

func startRouterCluster(t *testing.T) *routerCluster {
	t.Helper()
	const shards = 2
	ds, opts, rrPath, irrPath := shardedFixture(t, shards)
	c := &routerCluster{}

	be1, close1, err := openBackend(ds, opts, rrPath, irrPath, 1, kbtim.ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close1() })
	c.single = httptest.NewServer(NewServer(be1, 4).Handler())
	t.Cleanup(c.single.Close)

	beN, closeN, err := openBackend(ds, opts, rrPath, irrPath, shards, kbtim.ShardHash, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeN() })
	c.sharded = httptest.NewServer(NewServer(beN, 4).Handler())
	t.Cleanup(c.sharded.Close)

	var urls []string
	for i := 0; i < shards; i++ {
		be, closeBE, err := openBackend(ds, opts,
			kbtim.ShardIndexPath(rrPath, i), kbtim.ShardIndexPath(irrPath, i), 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		node := httptest.NewServer(NewServer(be, 4).Handler())
		t.Cleanup(node.Close)
		c.nodes = append(c.nodes, node)
		urls = append(urls, node.URL)
	}
	groups := make([][]string, len(urls))
	for i, u := range urls {
		groups[i] = []string{u}
	}
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.decBudget = 1 << 20
	cfg.queryPar = 2
	cfg.proxyTimeout = 30 * time.Second
	cfg.noProbeLoop = true // tests drive reprobeOnce by hand where they need recovery
	c.fo, err = openFanout(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.fo.Close() })
	c.router = httptest.NewServer(NewServer(c.fo, 4).Handler())
	t.Cleanup(c.router.Close)
	return c
}

// TestRouterThreeWayParity is the tentpole acceptance test: for both
// strategies and every query shape (proxied whole to either node, and
// spanning), a 2-node HTTP router returns byte-identical seeds, marginals,
// and spreads to BOTH a single engine and an in-process Sharded deployment
// over the same index payloads, and streams the same records, spread_lb
// included. Rows are picked by asking the shard map, and each row asserts
// the arm it took, so a hash change cannot quietly drop an arm.
func TestRouterThreeWayParity(t *testing.T) {
	c := startRouterCluster(t)
	const spanning = -1
	var owned [2][]int
	for w := 0; w < 8; w++ {
		owned[c.fo.Owner(w)] = append(owned[c.fo.Owner(w)], w)
	}
	if len(owned[0]) < 2 || len(owned[1]) < 1 {
		t.Fatalf("hash map leaves too few keywords per shard for the matrix: %v", owned)
	}
	rows := []struct {
		owner int // the group the router must proxy to, or spanning
		q     queryRequest
	}{
		{0, queryRequest{Topics: owned[0][:1], K: 3}},
		{1, queryRequest{Topics: owned[1][:1], K: 2}},
		{0, queryRequest{Topics: owned[0][:2], K: 4}},
		{spanning, queryRequest{Topics: []int{owned[0][0], owned[1][0]}, K: 3}},
		{spanning, queryRequest{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5}},
	}
	arms := func() [3]int64 {
		return [3]int64{c.fo.groups[0].nodes[0].proxied.Load(), c.fo.groups[1].nodes[0].proxied.Load(), c.fo.scatCnt.Load()}
	}
	for _, strategy := range []string{"rr", "irr"} {
		for _, row := range rows {
			q := row.q
			q.Strategy = strategy
			before := arms()
			one, resp := postQuery(t, c.single, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single %s %v: %v", strategy, q.Topics, resp.Status)
			}
			box, resp := postQuery(t, c.sharded, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sharded %s %v: %v", strategy, q.Topics, resp.Status)
			}
			net, resp := postQuery(t, c.router, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("router %s %v: %v", strategy, q.Topics, resp.Status)
			}
			for _, pair := range []struct {
				name string
				got  *queryResponse
			}{{"sharded", box}, {"router", net}} {
				if !reflect.DeepEqual(pair.got.Seeds, one.Seeds) ||
					!reflect.DeepEqual(pair.got.Marginals, one.Marginals) ||
					pair.got.EstSpread != one.EstSpread || pair.got.NumRRSets != one.NumRRSets {
					t.Fatalf("%s %s %v: (%v, %v, %v, %d) != single (%v, %v, %v, %d)",
						pair.name, strategy, q.Topics,
						pair.got.Seeds, pair.got.Marginals, pair.got.EstSpread, pair.got.NumRRSets,
						one.Seeds, one.Marginals, one.EstSpread, one.NumRRSets)
				}
			}

			// Streaming pass over the same three topologies: the emitted
			// seed records, concatenated, must be byte-identical to the
			// single-engine batch answer, and a deadline comfortably larger
			// than the query needs must be invisible (partial=false, same
			// payload) — including across the router's proxy wire, which
			// forwards the remaining budget as deadline_ms.
			q.DeadlineMS = 60_000
			var singleRecs []streamSeedRecord
			for _, topo := range []struct {
				name string
				ts   *httptest.Server
			}{{"single", c.single}, {"sharded", c.sharded}, {"router", c.router}} {
				recs, final := postQueryStream(t, topo.ts, q)
				if topo.name == "single" {
					singleRecs = recs
				} else if !reflect.DeepEqual(recs, singleRecs) {
					// spread_lb too, bit for bit: a proxied stream replays
					// the owner's records, a spanning one certifies locally.
					t.Fatalf("%s stream %s %v: records %+v != single's %+v",
						topo.name, strategy, q.Topics, recs, singleRecs)
				}
				var seeds []uint32
				var marginals []int
				for _, r := range recs {
					seeds = append(seeds, r.Seed)
					marginals = append(marginals, r.Marginal)
				}
				if !reflect.DeepEqual(seeds, one.Seeds) || !reflect.DeepEqual(marginals, one.Marginals) {
					t.Fatalf("%s stream %s %v: streamed (%v,%v) != single batch (%v,%v)",
						topo.name, strategy, q.Topics, seeds, marginals, one.Seeds, one.Marginals)
				}
				if final.Partial {
					t.Fatalf("%s stream %s %v: generous deadline marked the reply partial", topo.name, strategy, q.Topics)
				}
				if !reflect.DeepEqual(final.Seeds, one.Seeds) || final.EstSpread != one.EstSpread {
					t.Fatalf("%s stream %s %v: terminal record diverged from single batch", topo.name, strategy, q.Topics)
				}
			}
			// The row's batch and stream query both took its arm.
			want := before
			if row.owner == spanning {
				want[2] += 2
			} else {
				want[row.owner] += 2
			}
			if got := arms(); got != want {
				t.Fatalf("router %s %v: [proxied to 0, proxied to 1, scattered] went %v -> %v, want %v",
					strategy, q.Topics, before, got, want)
			}
		}
	}
	// The matrix above must have exercised BOTH router paths, on both nodes.
	if c.fo.proxCnt.Load() == 0 || c.fo.scatCnt.Load() == 0 {
		t.Fatalf("parity matrix did not cover both paths: proxied=%d scattered=%d",
			c.fo.proxCnt.Load(), c.fo.scatCnt.Load())
	}
	for i, n := range c.fo.nodes {
		if n.proxied.Load()+n.client.Stats().Fetches == 0 {
			t.Fatalf("backend %d never participated in a query", i)
		}
	}
	// The scattered queries must have traveled BATCHED: the /stats wire
	// counters show more units delivered inside batch replies than wire
	// round trips issued in total — the whole point of the v2 protocol.
	resp, err := http.Get(c.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Router == nil {
		t.Fatal("/stats has no router section")
	}
	if stats.Router.BatchedUnits <= stats.Router.FetchRequests {
		t.Fatalf("batching did not amortize the wire: %d batched units over %d fetch requests",
			stats.Router.BatchedUnits, stats.Router.FetchRequests)
	}
	if stats.Router.UnitsPerRequest <= 1 {
		t.Fatalf("units_per_request = %v, want > 1", stats.Router.UnitsPerRequest)
	}
	// Spanning queries read through the remote shards' decoded caches.
	if stats.RRDecoded.Hits+stats.RRDecoded.Misses == 0 || stats.IRRDecoded.Hits+stats.IRRDecoded.Misses == 0 {
		t.Fatalf("router decoded caches saw no lookups: rr %+v, irr %+v", stats.RRDecoded, stats.IRRDecoded)
	}
}

// TestRouterErrorParity is the error arm of the three-way matrix: a
// deterministic rejection — k above the index cap, a keyword outside the
// topic space — is a 422 with the SAME body from a single engine, an
// in-process Sharded deployment and the router, whether the router proxied
// the query (relaying the owning node's verdict) or scattered it.
func TestRouterErrorParity(t *testing.T) {
	c := startRouterCluster(t)
	postErr := func(ts *httptest.Server, q queryRequest) (int, string) {
		t.Helper()
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fail struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, fail.Error
	}
	queries := []queryRequest{
		{Topics: []int{0}, K: 30},       // k > K, co-located: proxied whole
		{Topics: []int{0, 1}, K: 30},    // k > K, spanning
		{Topics: []int{99}, K: 2},       // out of space, co-located
		{Topics: []int{0, 1, 99}, K: 2}, // out of space, spanning
	}
	before := c.fo.proxCnt.Load() + c.fo.scatCnt.Load()
	for _, strategy := range []string{"rr", "irr"} {
		for _, q := range queries {
			q.Strategy = strategy
			status, want := postErr(c.single, q)
			if status != http.StatusUnprocessableEntity || want == "" {
				t.Fatalf("single %s %v k=%d: status %d, error %q", strategy, q.Topics, q.K, status, want)
			}
			for _, topo := range []struct {
				name string
				ts   *httptest.Server
			}{{"sharded", c.sharded}, {"router", c.router}} {
				if status, got := postErr(topo.ts, q); status != http.StatusUnprocessableEntity || got != want {
					t.Fatalf("%s %s %v k=%d: %d %q, single engine says 422 %q",
						topo.name, strategy, q.Topics, q.K, status, got, want)
				}
			}
		}
	}
	if c.fo.proxCnt.Load() == 0 || c.fo.scatCnt.Load() == 0 ||
		c.fo.proxCnt.Load()+c.fo.scatCnt.Load()-before != int64(2*len(queries)) {
		t.Fatalf("error matrix did not cover both router paths: proxied=%d scattered=%d",
			c.fo.proxCnt.Load(), c.fo.scatCnt.Load())
	}
}

// TestRouterStatsAndHealth: the router's /stats carries the per-backend
// fan-out section (with the backends' own stats embedded) and /healthz
// turns 503 the moment a backend goes away.
func TestRouterStatsAndHealth(t *testing.T) {
	c := startRouterCluster(t)
	if _, resp := postQuery(t, c.router, queryRequest{Topics: []int{0, 1, 2, 3}, K: 3, Strategy: "irr"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup query: %v", resp.Status)
	}

	getStats := func() statsResponse {
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
		if stats.Router == nil {
			t.Fatal("/stats has no router section")
		}
		return stats
	}
	stats := getStats()
	if got := len(stats.Router.Backends); got != 2 {
		t.Fatalf("router section lists %d backends, want 2", got)
	}
	for i, b := range stats.Router.Backends {
		if !b.Healthy {
			t.Fatalf("backend %d (%s) reported unhealthy", i, b.URL)
		}
		if b.Breaker != breakerClosed {
			t.Fatalf("backend %d breaker = %q, want closed", i, b.Breaker)
		}
		if !b.Validated {
			t.Fatalf("backend %d not validated despite being up at open", i)
		}
		if b.Shard != i {
			t.Fatalf("backend %d reports shard %d", i, b.Shard)
		}
		if b.Stats == nil {
			t.Fatalf("backend %d stats not embedded", i)
		}
	}
	if stats.Router.FetchRequests == 0 || stats.Router.BatchedUnits == 0 {
		t.Fatalf("spanning warmup moved no batched artifacts: fetch_requests=%d batched_units=%d",
			stats.Router.FetchRequests, stats.Router.BatchedUnits)
	}
	if stats.Router.Proxied+stats.Router.Scattered == 0 {
		t.Fatal("router counted no traffic")
	}
	// There is one wire: a single-unit plan is one POST carrying one unit,
	// not a detour around the batch endpoint.
	replies, _ := c.fo.groups[0].grp.FetchBatch(context.Background(), remote.KindIRR,
		[]artifact.Request{{Unit: irrindex.UnitDir}})
	if err := replies[0].Err; err != nil {
		t.Fatalf("single-unit fetch: %v", err)
	}
	if after := getStats().Router; after.FetchRequests != stats.Router.FetchRequests+1 || after.BatchedUnits != stats.Router.BatchedUnits+1 {
		t.Fatalf("single-unit plan moved fetch_requests %d->%d, batched_units %d->%d; want +1 and +1",
			stats.Router.FetchRequests, after.FetchRequests, stats.Router.BatchedUnits, after.BatchedUnits)
	}
	if stats.Router.Retries != 0 || stats.Router.Failovers != 0 || stats.Router.Degraded != 0 {
		t.Fatalf("healthy cluster reports retries=%d failovers=%d degraded=%d, want zeros",
			stats.Router.Retries, stats.Router.Failovers, stats.Router.Degraded)
	}
	if got := stats.Router.ProxyTimeoutSec; got != 30 {
		t.Fatalf("proxy_timeout_sec = %v, want the configured 30", got)
	}
	if stats.Router.HealthTTLSec != 2 || stats.Router.ProbeTimeoutSec != 2 {
		t.Fatalf("health_ttl_sec=%v probe_timeout_sec=%v, want the configured 2s defaults",
			stats.Router.HealthTTLSec, stats.Router.ProbeTimeoutSec)
	}

	resp, err := http.Get(c.router.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with live backends: %v %v", resp, err)
	}
	resp.Body.Close()
	if err := c.fo.CheckHealth(context.Background()); err != nil {
		t.Fatalf("CheckHealth with live backends: %v", err)
	}

	// Take one backend down: the router must stop reporting healthy.
	// (Disable the probe TTL cache so the verdict is live, not the cached
	// "healthy" from the checks above.)
	c.fo.healthTTL = 0
	c.nodes[1].Close()
	if resp, err = http.Get(c.router.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead backend: got %v, want 503", resp.Status)
	}
	resp.Body.Close()
}

// TestRouterRefusesShardsOfDifferentShape: two backends whose shard files
// were built with different K are not shards of one index. The router must
// refuse to start and name the shard, rather than start and fail every
// spanning query (and never check proxied ones).
func TestRouterRefusesShardsOfDifferentShape(t *testing.T) {
	ds, opts, _, irrPath := shardedFixture(t, 2)
	opts.K--
	builder, err := kbtim.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	parts, err := builder.ShardTopics(2, kbtim.ShardHash)
	if err != nil {
		t.Fatal(err)
	}
	otherK := filepath.Join(t.TempDir(), "otherk.irr.s1")
	if _, err := builder.BuildIRRIndexTopics(otherK, parts[1]); err != nil {
		t.Fatal(err)
	}
	var groups [][]string
	for _, path := range []string{kbtim.ShardIndexPath(irrPath, 0), otherK} {
		be, closeBE, err := openBackend(ds, opts, "", path, 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		srv := httptest.NewServer(NewServer(be, 4).Handler())
		t.Cleanup(srv.Close)
		groups = append(groups, []string{srv.URL})
	}
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.noProbeLoop = true
	fo, err := openFanout(groups, cfg)
	if err == nil {
		fo.Close()
		t.Fatal("router started over shards built with different K")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "K=") {
		t.Fatalf("error should name shard 1 and the shapes, got: %v", err)
	}
}
