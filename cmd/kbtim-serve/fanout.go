package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// fanoutNode is one downstream kbtim-serve process as the router sees it:
// one replica of one shard. Its breaker is the health gate every
// router→backend interaction consults and feeds (passive observation) and
// the background probe loop re-closes (active half-open re-probes).
type fanoutNode struct {
	url     string
	shard   int
	client  *remote.Client
	proxied atomic.Int64 // whole queries this replica answered
	brk     breaker
	// validated records that this replica's index preludes were checked
	// byte-identical to its group's reference view. Replicas that were down
	// at router startup start false and must pass remote.Group.Validate in
	// the probe loop before their breaker may close — an unvalidated
	// replica serving artifacts could silently break the parity invariant.
	validated atomic.Bool

	// healthMu guards the TTL-cached /healthz verdict below: load
	// balancers poll the router's /healthz every few seconds, often from
	// several instances, and without the cache every poll would fan out a
	// fresh probe to every backend.
	healthMu  sync.Mutex
	healthAt  time.Time
	healthErr error
}

// shardGroup is the replica set serving one shard's keyword subset: R nodes
// all serving byte-identical index files, a remote.Group that fails artifact
// fetches over between them, and ONE remote-backed index per kind opened at
// the group level (the directory is the same on every replica, so which
// replica supplied it is irrelevant — and a replica coming back needs no
// re-open, only a breaker close).
type shardGroup struct {
	f      *fanout
	shard  int
	nodes  []*fanoutNode
	grp    *remote.Group
	rr     *rrindex.Index
	irr    *irrindex.Index
	rrDec  *objcache.Cache
	irrDec *objcache.Cache
	next   atomic.Uint64 // proxy round-robin cursor across replicas
}

// groupHealth adapts a shardGroup's breakers to remote.Health, so artifact
// fetches are routed around open breakers and their outcomes feed back in.
type groupHealth struct{ g *shardGroup }

func (h groupHealth) Available(i int) bool { return h.g.nodes[i].brk.allow() }
func (h groupHealth) Observe(i int, err error) {
	h.g.f.observeNode(h.g.nodes[i], err)
}

// fanout is the cross-node scatter-gather backend (kbtim-serve -router):
// the same shardmap contract as kbtim.Sharded, with replica GROUPS of
// processes behind it. Group i owns the keywords shard i of the map assigns,
// exactly the partition kbtim-build -shards wrote into the file every
// replica of group i serves, so build, backend, and router all agree on
// ownership with no coordination service.
//
// A query whose topics co-locate on one group is PROXIED whole to one of its
// healthy replicas (one round trip; re-issued to a surviving replica on
// failure — safe, the query is read-only). A query spanning groups runs
// Algorithm 2/4 locally with every keyword's artifact fetches going over the
// wire to its owning group — rrindex/irrindex QueryMultiStreamCtx over
// remote-backed indexes whose fetches fail over mid-round — which keeps results
// bit-identical to a single engine over the full index (the three-way parity
// test pins engine == in-process Sharded == this router, and the failover
// tests pin it under injected faults). Router-side decoded caches front the
// wire per group, so hot keywords scatter without network I/O.
type fanout struct {
	sm     *shardmap.Map
	mode   kbtim.ShardMode
	groups []*shardGroup
	nodes  []*fanoutNode // flattened (shard-major) for stats and health scans
	hc     *http.Client  // proxy/health/stats transport (per-request ctx bounds it)
	// artifactHC is the ONE tuned client every backend's artifact fetches
	// share: a spanning query issues one batch POST per owning group per
	// round, and those must ride already-warm connections — a per-node
	// default client would keep only 2 idle connections per host and re-pay
	// TCP setup every round. It shares its transport (and so its idle pool)
	// with hc.
	artifactHC *http.Client

	proxCnt        atomic.Int64
	scatCnt        atomic.Int64
	proxyRetries   atomic.Int64 // failed proxy attempts re-issued to another replica
	proxyFailovers atomic.Int64 // proxied queries that succeeded on a non-first replica

	healthTTL    time.Duration
	probeTimeout time.Duration
	// proxyTimeout bounds every router→backend query call — the startup
	// opens and each proxied /query POST attempt — on top of whatever
	// deadline the client request already carries (-proxy-timeout).
	proxyTimeout time.Duration
	brkCfg       breakerConfig

	stopProbe chan struct{} // closes the background re-probe loop
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// fanoutConfig carries openFanout's knobs (the flag surface plus test hooks).
type fanoutConfig struct {
	mode         kbtim.ShardMode
	decBudget    int64 // PER-GROUP decoded-cache byte budget (caller splits the global flag)
	queryPar     int
	proxyTimeout time.Duration
	healthTTL    time.Duration // TTL of cached /healthz verdicts (0 = probe every time)
	probeTimeout time.Duration // per-probe bound on /healthz round trips
	breaker      breakerConfig
	noProbeLoop  bool // tests drive reprobeOnce by hand instead
}

func defaultFanoutConfig() fanoutConfig {
	return fanoutConfig{
		proxyTimeout: 30 * time.Second,
		healthTTL:    2 * time.Second,
		probeTimeout: 2 * time.Second,
		breaker:      defaultBreakerConfig(),
	}
}

// probeLoopInterval is how often the background loop scans for breakers due
// a half-open re-probe; the per-breaker exponential backoff decides whether
// a scan actually probes anything.
const probeLoopInterval = 100 * time.Millisecond

// normalizeBackendURL accepts "host:port" or a full URL and returns a
// scheme-qualified base with no trailing slash.
func normalizeBackendURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// splitBackends parses the -backends flag: comma-separated shards, each a
// |-separated set of replicas serving that shard's files ("h1|h1b,h2|h2b" =
// two shards, two replicas each).
func splitBackends(flag string) [][]string {
	var groups [][]string
	for _, part := range strings.Split(flag, ",") {
		var reps []string
		for _, r := range strings.Split(part, "|") {
			if p := strings.TrimSpace(r); p != "" {
				reps = append(reps, normalizeBackendURL(p))
			}
		}
		if len(reps) > 0 {
			groups = append(groups, reps)
		}
	}
	return groups
}

// openFanout connects to every replica group, opens each group's indexes
// remotely (one "dir" fetch per kind from the first live replica), verifies
// every reachable replica serves byte-identical preludes, and wires the
// shard map over the discovered keyword universe.
//
// Backends that are down at startup do NOT abort the open: as long as each
// group keeps >= 1 live replica the router starts DEGRADED — the dead
// replicas' breakers are forced open and the background probe loop
// re-validates and re-admits them when they come back. A reachable replica
// that disagrees with its group (different index file, missing kind) is a
// configuration error and does abort: it can never be safely admitted.
//
// Every group must serve the same index kinds over the same topic universe
// (spanning queries re-verify |V|/|T|/K at query time; topic-space agreement
// is what the shard map needs up front).
func openFanout(groups [][]string, cfg fanoutConfig) (*fanout, error) {
	if len(groups) == 0 {
		return nil, errors.New("router mode needs -backends (comma-separated shards, |-separated replicas)")
	}
	if cfg.proxyTimeout <= 0 {
		return nil, fmt.Errorf("-proxy-timeout must be positive, got %v", cfg.proxyTimeout)
	}
	if cfg.probeTimeout <= 0 {
		return nil, fmt.Errorf("-probe-timeout must be positive, got %v", cfg.probeTimeout)
	}
	if cfg.breaker.failures < 1 || cfg.breaker.minBackoff <= 0 || cfg.breaker.maxBackoff < cfg.breaker.minBackoff {
		return nil, fmt.Errorf("invalid breaker config %+v", cfg.breaker)
	}
	m := shardmap.Hash
	if cfg.mode != "" {
		var err error
		if m, err = shardmap.ParseMode(string(cfg.mode)); err != nil {
			return nil, err
		}
	}
	// One keep-alive transport serves every router→backend call — proxied
	// queries, health probes, and artifact traffic alike — so a backend's
	// warm connections are shared across paths instead of competing pools.
	tr := remote.NewTransport()
	f := &fanout{
		mode:         cfg.mode,
		hc:           &http.Client{Transport: tr}, // per-request contexts bound proxy calls
		artifactHC:   &http.Client{Timeout: cfg.proxyTimeout, Transport: tr},
		healthTTL:    cfg.healthTTL,
		probeTimeout: cfg.probeTimeout,
		proxyTimeout: cfg.proxyTimeout,
		brkCfg:       cfg.breaker,
	}
	numTopics := 0
	for si, urls := range groups {
		g, err := f.openGroup(si, urls, cfg)
		if err != nil {
			return nil, err
		}
		if si > 0 {
			if (g.rr == nil) != (f.groups[0].rr == nil) || (g.irr == nil) != (f.groups[0].irr == nil) {
				return nil, fmt.Errorf("shard %d [%s] serves a different index-kind set than shard 0", si, strings.Join(urls, "|"))
			}
		}
		nt := 0
		switch {
		case g.irr != nil:
			nt = g.irr.Header().NumTopics
		case g.rr != nil:
			nt = g.rr.Header().NumTopics
		}
		if si == 0 {
			numTopics = nt
		} else if nt != numTopics {
			return nil, fmt.Errorf("shard %d serves a %d-topic universe, shard 0 serves %d — not shards of one index",
				si, nt, numTopics)
		}
		f.groups = append(f.groups, g)
		f.nodes = append(f.nodes, g.nodes...)
	}
	sm, err := shardmap.New(len(f.groups), m, numTopics)
	if err != nil {
		return nil, err
	}
	f.sm = sm
	if !cfg.noProbeLoop {
		f.stopProbe = make(chan struct{})
		f.probeWG.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// openGroup opens one shard's replica set: group-level index opens through
// the failover fetch, then a per-replica census that separates "down right
// now" (degraded start, breaker forced open) from "serving the wrong file"
// (config error, abort).
func (f *fanout) openGroup(si int, urls []string, cfg fanoutConfig) (*shardGroup, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.proxyTimeout)
	defer cancel()
	g := &shardGroup{f: f, shard: si}
	clients := make([]*remote.Client, 0, len(urls))
	for _, u := range urls {
		n := &fanoutNode{url: u, shard: si, client: remote.NewClient(u, f.artifactHC)}
		g.nodes = append(g.nodes, n)
		clients = append(clients, n.client)
	}
	g.grp = remote.NewGroup(clients, groupHealth{g})
	var err error
	if g.rr, err = g.grp.OpenRR(ctx); err != nil && !errors.Is(err, remote.ErrNotServed) {
		return nil, fmt.Errorf("shard %d [%s]: no live replica serves its RR index: %w", si, strings.Join(urls, "|"), err)
	}
	if g.irr, err = g.grp.OpenIRR(ctx); err != nil && !errors.Is(err, remote.ErrNotServed) {
		return nil, fmt.Errorf("shard %d [%s]: no live replica serves its IRR index: %w", si, strings.Join(urls, "|"), err)
	}
	if g.rr == nil && g.irr == nil {
		return nil, fmt.Errorf("shard %d [%s] serves no RR or IRR index", si, strings.Join(urls, "|"))
	}
	// Census: every reachable replica must agree byte-for-byte with the
	// group's reference preludes; unreachable ones start behind an open
	// breaker and are re-validated by the probe loop when they come back.
	for ni, n := range g.nodes {
		err := g.validateNode(ctx, ni)
		switch {
		case err == nil:
		case errors.Is(err, remote.ErrReplicaMismatch), errors.Is(err, remote.ErrNotServed):
			return nil, fmt.Errorf("backend %s is not a replica of shard %d: %w", n.url, si, err)
		default:
			n.brk.forceOpen(time.Now(), f.brkCfg)
		}
	}
	if g.rr != nil {
		if cfg.decBudget > 0 {
			g.rrDec = objcache.NewSharded(cfg.decBudget, 0)
			g.rr.SetDecodedCache(g.rrDec)
		}
		g.rr.SetQueryParallelism(cfg.queryPar)
	}
	if g.irr != nil {
		if cfg.decBudget > 0 {
			g.irrDec = objcache.NewSharded(cfg.decBudget, 0)
			g.irr.SetDecodedCache(g.irrDec)
		}
		g.irr.SetQueryParallelism(cfg.queryPar)
	}
	return g, nil
}

// validateNode checks replica ni of g against the group's reference preludes
// for every kind the group serves and, on success, marks it admitted.
func (g *shardGroup) validateNode(ctx context.Context, ni int) error {
	if g.rr != nil {
		if err := g.grp.Validate(ctx, ni, remote.KindRR); err != nil {
			return err
		}
	}
	if g.irr != nil {
		if err := g.grp.Validate(ctx, ni, remote.KindIRR); err != nil {
			return err
		}
	}
	g.nodes[ni].validated.Store(true)
	return nil
}

// observeNode feeds one round trip's outcome into the node's breaker. A
// success may close an open breaker only for a validated replica — an
// unvalidated one (down at startup) must pass the probe loop's directory
// check first, so a lucky fail-open fetch cannot admit a wrong file.
func (f *fanout) observeNode(n *fanoutNode, err error) {
	if err == nil {
		n.brk.success(n.validated.Load())
		return
	}
	n.brk.failure(time.Now(), f.brkCfg)
}

// Close stops the background probe loop. The HTTP clients hold no
// goroutines of their own.
func (f *fanout) Close() error {
	f.closeOnce.Do(func() {
		if f.stopProbe != nil {
			close(f.stopProbe)
			f.probeWG.Wait()
		}
	})
	return nil
}

// probeLoop is the background half-open re-probe driver: it periodically
// scans every node and runs at most one probe per open breaker, spaced by
// the breaker's own exponential backoff + jitter.
func (f *fanout) probeLoop() {
	defer f.probeWG.Done()
	tick := time.NewTicker(probeLoopInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			f.reprobeOnce()
		case <-f.stopProbe:
			return
		}
	}
}

// reprobeOnce runs one scan of the probe loop: every open breaker that is
// due gets a /healthz round trip (plus, for a replica never admitted, the
// directory validation) and its breaker closed or backed off accordingly.
// Exposed separately so tests can drive recovery deterministically.
func (f *fanout) reprobeOnce() {
	now := time.Now()
	for _, g := range f.groups {
		for ni, n := range g.nodes {
			if !n.brk.beginProbe(now) {
				continue
			}
			err := f.probeNode(g, ni, n)
			n.brk.probeResult(err == nil, time.Now(), f.brkCfg)
		}
	}
}

// probeNode is one half-open probe: the backend must answer /healthz and,
// if it was never validated against the group, serve byte-identical index
// preludes before it is re-admitted.
func (f *fanout) probeNode(g *shardGroup, ni int, n *fanoutNode) error {
	ctx, cancel := context.WithTimeout(context.Background(), f.probeTimeout)
	defer cancel()
	if err := f.probeHealth(ctx, n); err != nil {
		return err
	}
	if !n.validated.Load() {
		if err := g.validateNode(ctx, ni); err != nil {
			return err
		}
	}
	return nil
}

// proxyOrder returns the group's replicas in try order for a whole-query
// proxy: round-robin across replicas (spreading load), available ones
// first, the rest kept as a last resort.
func (g *shardGroup) proxyOrder() []int {
	n := len(g.nodes)
	start := int(g.next.Add(1)-1) % n
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; g.nodes[i].brk.allow() {
			order = append(order, i)
		}
	}
	for k := 0; k < n; k++ {
		if i := (start + k) % n; !g.nodes[i].brk.allow() {
			order = append(order, i)
		}
	}
	return order
}

// proxy forwards the whole query to one healthy replica of the owning group
// and maps the reply back into a Result — the co-located fast path: one
// round trip, the owning node pays the compute, results identical by
// construction on ANY replica (they serve the same file). A transient
// failure re-issues the query to the next replica, rebuilding the request
// body per attempt; a deterministic reply (4xx — bad query, unindexed
// keyword) returns immediately, every replica would say the same.
func (f *fanout) proxy(ctx context.Context, gi int, s kbtim.Strategy, q kbtim.Query, so kbtim.StreamOptions) (*kbtim.Result, error) {
	g := f.groups[gi]
	wireReq := queryRequest{Topics: q.Topics, K: q.K, Strategy: string(s)}
	if !so.Deadline.IsZero() {
		// The anytime deadline crosses the wire as a relative budget: the
		// owning node runs the SAME best-certified-prefix degradation a local
		// engine would and marks the reply partial. An already-expired
		// deadline skips the round trip — the best certified prefix is empty.
		ms := time.Until(so.Deadline).Milliseconds()
		if ms <= 0 {
			return &kbtim.Result{Partial: true}, nil
		}
		wireReq.DeadlineMS = ms
	}
	body, err := json.Marshal(wireReq)
	if err != nil {
		return nil, err
	}
	order := g.proxyOrder()
	var lastErr error
	for attempt, ni := range order {
		n := g.nodes[ni]
		res, retryable, err := f.proxyOnce(ctx, n, body)
		if err == nil {
			n.proxied.Add(1)
			if attempt > 0 {
				f.proxyFailovers.Add(1)
			}
			// Proxied queries stream on arrival: the whole reply exists
			// before the first emission (only scattered queries certify
			// locally seed by seed), but the emitted (seed, marginal,
			// spreadLB) sequence is identical to what the owning node's own
			// stream produced — the prefix spread formula is shared.
			if so.Emit != nil {
				covered := 0
				for _, m := range res.Marginals {
					covered += m
				}
				run := 0
				for i, seed := range res.Seeds {
					if i < len(res.Marginals) {
						run += res.Marginals[i]
					}
					lb := 0.0
					if covered > 0 {
						lb = res.EstSpread * float64(run) / float64(covered)
					}
					m := 0
					if i < len(res.Marginals) {
						m = res.Marginals[i]
					}
					so.Emit(seed, m, lb)
				}
			}
			return res, nil
		}
		if !retryable || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		if attempt < len(order)-1 {
			f.proxyRetries.Add(1)
		}
	}
	return nil, lastErr
}

// proxyOnce issues one proxied /query attempt against one replica.
// retryable separates transient faults (unreachable, 5xx, truncated reply —
// another replica may well succeed) from deterministic ones (4xx: every
// replica serves the same file and would reject identically). Outcomes feed
// the node's breaker; a caller-canceled context feeds nothing.
func (f *fanout) proxyOnce(ctx context.Context, n *fanoutNode, body []byte) (*kbtim.Result, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, f.proxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil || errors.Is(err, context.DeadlineExceeded) {
			f.observeNode(n, err)
		}
		return nil, true, fmt.Errorf("backend %s: %w", n.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var fail struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		retryable := resp.StatusCode >= 500
		if retryable {
			f.observeNode(n, fmt.Errorf("%s", resp.Status))
		} else {
			// The node is fine; the query is what it objects to.
			f.observeNode(n, nil)
		}
		if json.Unmarshal(msg, &fail) == nil && fail.Error != "" {
			if !retryable {
				// A deterministic rejection reads the same from every replica
				// (and from a local engine), so which one relayed it is noise.
				return nil, false, errors.New(fail.Error)
			}
			return nil, true, fmt.Errorf("backend %s: %s", n.url, fail.Error)
		}
		return nil, retryable, fmt.Errorf("backend %s: %s: %s", n.url, resp.Status, msg)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		if ctx.Err() == nil {
			f.observeNode(n, err)
		}
		return nil, true, fmt.Errorf("backend %s: decoding reply: %w", n.url, err)
	}
	f.observeNode(n, nil)
	return qr.result(), false, nil
}

// Query implements backend: a query whose topics one group owns is proxied
// whole (emitting on reply arrival); a spanning query runs Algorithm 2/4
// locally over the remote-backed group indexes, certifying and emitting seed
// by seed. This is the router's one strategy switch and its one index-result
// → Result conversion.
func (f *fanout) Query(ctx context.Context, s kbtim.Strategy, q kbtim.Query, so kbtim.StreamOptions) (*kbtim.Result, error) {
	if s != kbtim.StrategyRR && s != kbtim.StrategyIRR {
		return nil, fmt.Errorf("unknown strategy %q (want rr or irr)", s)
	}
	if g := f.groups[0]; (s == kbtim.StrategyRR && g.rr == nil) || (s == kbtim.StrategyIRR && g.irr == nil) {
		return nil, fmt.Errorf("router backends serve no %s index", strings.ToUpper(string(s)))
	}
	gids := f.sm.Shards(q.Topics)
	if len(gids) == 0 {
		return nil, errors.New("query needs at least one keyword")
	}
	if len(gids) == 1 {
		f.proxCnt.Add(1)
		return f.proxy(ctx, gids[0], s, q, so)
	}
	f.scatCnt.Add(1)
	// An out-of-space keyword has no owner; the shard map routes it to group
	// 0 so the index reports "outside topic space", as a single engine would.
	group := func(w int) *shardGroup { return f.groups[f.sm.Owner(w)] }
	tq := topic.Query{Topics: q.Topics, K: q.K}
	wso := wris.StreamOptions{Emit: wris.EmitFunc(so.Emit), Deadline: so.Deadline}
	var (
		r   *indexfile.Result
		err error
	)
	if s == kbtim.StrategyRR {
		r, err = rrindex.QueryMultiStreamCtx(ctx, func(w int) *rrindex.Index { return group(w).rr }, tq, wso)
	} else {
		r, err = irrindex.QueryMultiStreamCtx(ctx, func(w int) *irrindex.Index { return group(w).irr }, tq, wso)
	}
	if err != nil {
		return nil, err
	}
	// The scatter query's I/O scope recorded artifact transfers, so BytesRead
	// are wire bytes here.
	return &kbtim.Result{
		Seeds:            r.Seeds,
		Marginals:        r.Marginals,
		EstSpread:        r.EstSpread,
		NumRRSets:        r.NumRRSets,
		PartitionsLoaded: r.PartitionsLoaded,
		IO: kbtim.IOStats{
			SequentialReads: r.IO.SequentialReads,
			RandomReads:     r.IO.RandomReads,
			BytesRead:       r.IO.BytesRead,
			CacheHits:       r.IO.CacheHits,
			CacheMisses:     r.IO.CacheMisses,
			DecodedHits:     r.DecodedHits,
			DecodedMisses:   r.DecodedMisses,
		},
		Elapsed: r.Elapsed,
		Partial: r.Partial,
	}, nil
}

// IndexedKeywords implements backend: the sorted union of every group's
// queryable topics.
func (f *fanout) IndexedKeywords() []int {
	seen := map[int]bool{}
	var out []int
	for _, g := range f.groups {
		var kws []int
		switch {
		case g.irr != nil:
			kws = g.irr.Keywords()
		case g.rr != nil:
			kws = g.rr.Keywords()
		}
		for _, w := range kws {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	if out == nil {
		return nil
	}
	sort.Ints(out)
	return out
}

// CacheStats implements backend. The router holds no segment cache — raw
// bytes never land here outside an artifact fetch, which the decoded tier
// fronts — so the segment section is zero.
func (f *fanout) CacheStats() (rr, irr diskio.CacheStats) { return }

// DecodedCacheStats implements backend: the router-side caches, summed
// across groups.
func (f *fanout) DecodedCacheStats() (rr, irr objcache.Stats) {
	for _, g := range f.groups {
		if g.rrDec != nil {
			rr = rr.Add(g.rrDec.Stats())
		}
		if g.irrDec != nil {
			irr = irr.Add(g.irrDec.Stats())
		}
	}
	return
}

// nodeHealthy returns one node's /healthz verdict, served from a
// healthTTL-bounded cache so frequent health polling does not amplify into
// a probe storm on the backends (a verdict may therefore be up to
// healthTTL stale).
func (f *fanout) nodeHealthy(ctx context.Context, n *fanoutNode) error {
	n.healthMu.Lock()
	if f.healthTTL > 0 && !n.healthAt.IsZero() && time.Since(n.healthAt) < f.healthTTL {
		err := n.healthErr
		n.healthMu.Unlock()
		return err
	}
	n.healthMu.Unlock()
	err := f.probeHealth(ctx, n)
	n.healthMu.Lock()
	n.healthAt = time.Now()
	n.healthErr = err
	n.healthMu.Unlock()
	return err
}

// probeHealth performs the actual /healthz round trip. The verdict is
// cached and shared across callers, so the probe detaches from the
// caller's context — one impatient client's cancellation must not get
// recorded (and served for healthTTL) as "backend down"; the probe's own
// -probe-timeout still bounds it.
func (f *fanout) probeHealth(ctx context.Context, n *fanoutNode) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), f.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	return nil
}

// CheckHealth implements healthChecker: the router is healthy while EVERY
// shard keeps at least one healthy replica — the degraded-but-servable
// contract. A single dead replica no longer turns the router away from load
// balancers (its shard is still answerable); a shard with no live replica
// does, because its keyword subset is unservable. Breaker-open replicas are
// skipped without a probe — the background loop owns their recovery.
func (f *fanout) CheckHealth(ctx context.Context) error {
	downShards := make([]string, len(f.groups))
	var wg sync.WaitGroup
	for gi, g := range f.groups {
		wg.Add(1)
		go func(gi int, g *shardGroup) {
			defer wg.Done()
			var reasons []string
			for _, n := range g.nodes {
				if !n.brk.allow() {
					reasons = append(reasons, fmt.Sprintf("%s (breaker %s)", n.url, n.brk.state()))
					continue
				}
				if err := f.nodeHealthy(ctx, n); err != nil {
					reasons = append(reasons, fmt.Sprintf("%s (%v)", n.url, err))
					continue
				}
				return // one healthy replica is enough
			}
			downShards[gi] = fmt.Sprintf("shard %d: %s", gi, strings.Join(reasons, ", "))
		}(gi, g)
	}
	wg.Wait()
	var down []string
	for _, s := range downShards {
		if s != "" {
			down = append(down, s)
		}
	}
	if len(down) > 0 {
		return fmt.Errorf("shards with no live replica: %s", strings.Join(down, "; "))
	}
	return nil
}

// RouterStats implements routerStatser: the fan-out and failover counters
// plus a live probe, breaker snapshot, and /stats scrape of every replica
// (in parallel; a node that does not answer in time appears unhealthy with
// null stats).
func (f *fanout) RouterStats(ctx context.Context) *routerStatsJSON {
	gstats := remote.GroupStats{}
	for _, g := range f.groups {
		s := g.grp.Stats()
		gstats.Retries += s.Retries
		gstats.Failovers += s.Failovers
	}
	wire := remote.WireStats{}
	for _, n := range f.nodes {
		wire = wire.Add(n.client.Stats())
	}
	out := &routerStatsJSON{
		Mode:            string(f.mode),
		ProxyTimeoutSec: f.proxyTimeout.Seconds(),
		HealthTTLSec:    f.healthTTL.Seconds(),
		ProbeTimeoutSec: f.probeTimeout.Seconds(),
		Proxied:         f.proxCnt.Load(),
		Scattered:       f.scatCnt.Load(),
		Retries:         f.proxyRetries.Load() + gstats.Retries,
		Failovers:       f.proxyFailovers.Load() + gstats.Failovers,
		FetchRequests:   wire.Fetches,
		BatchedUnits:    wire.BatchedUnits,
		Backends:        make([]routerBackendJSON, len(f.nodes)),
	}
	if wire.Fetches > 0 {
		out.UnitsPerRequest = float64(wire.BatchedUnits) / float64(wire.Fetches)
	}
	for _, n := range f.nodes {
		if !n.brk.allow() {
			out.Degraded++
		}
	}
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *fanoutNode) {
			defer wg.Done()
			ws := n.client.Stats()
			b := routerBackendJSON{
				URL:             n.url,
				Shard:           n.shard,
				Healthy:         n.brk.allow() && f.nodeHealthy(ctx, n) == nil,
				Breaker:         n.brk.state(),
				BreakerTrips:    n.brk.tripCount(),
				Validated:       n.validated.Load(),
				Proxied:         n.proxied.Load(),
				ArtifactFetches: ws.Fetches,
				WireBytes:       ws.Bytes,
				BatchedUnits:    ws.BatchedUnits,
			}
			if raw := f.scrapeStats(ctx, n); raw != nil {
				b.Stats = raw
			}
			out.Backends[i] = b
		}(i, n)
	}
	wg.Wait()
	return out
}

// scrapeStats best-effort fetches one node's /stats for embedding.
func (f *fanout) scrapeStats(ctx context.Context, n *fanoutNode) json.RawMessage {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || !json.Valid(raw) {
		return nil
	}
	return json.RawMessage(raw)
}
