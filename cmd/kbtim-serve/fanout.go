package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbtim"
	"kbtim/internal/remote"
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
// all serving byte-identical index files and a remote.Group that fails
// artifact fetches over between them. The shard's indexes are opened once,
// through the group, as shard `shard` of the router's kbtim.Sharded (the
// directory is the same on every replica, so which replica supplied it is
// irrelevant — and a replica coming back needs no re-open, only a breaker
// close).
type shardGroup struct {
	f     *fanout
	shard int
	nodes []*fanoutNode
	grp   *remote.Group
	next  atomic.Uint64 // proxy round-robin cursor across replicas
}

// groupHealth adapts a shardGroup's breakers to remote.Health, so artifact
// fetches are routed around open breakers and their outcomes feed back in.
type groupHealth struct{ g *shardGroup }

func (h groupHealth) Available(i int) bool { return h.g.nodes[i].brk.allow() }
func (h groupHealth) Observe(i int, err error) {
	h.g.f.observeNode(h.g.nodes[i], err)
}

// fanout is the cross-node backend (kbtim-serve -router): a kbtim.Sharded
// whose shard i is replica GROUP i of kbtim-serve processes, opened remotely
// (kbtim.OpenRemoteSharded). Group i owns the keywords shard i of the map
// assigns, exactly the partition kbtim-build -shards wrote into the file
// every replica of group i serves, so build, backend, and router all agree on
// ownership with no coordination service. The embedded Sharded supplies the
// keyword union, the cache counters and the per-shard /stats section.
//
// A query whose topics co-locate on one group is PROXIED whole to one of its
// healthy replicas (one round trip; re-issued to a surviving replica on
// failure — safe, the query is read-only). A query spanning groups is
// Sharded.Query: the same merge and the same Result conversion as an
// in-process deployment, with every keyword's artifact fetches going over the
// wire to its owning group and failing over mid-round — which keeps results
// bit-identical to a single engine over the full index (the three-way parity
// test pins engine == in-process Sharded == this router, and the failover
// tests pin it under injected faults). The shards' decoded caches front the
// wire, so hot keywords scatter without network I/O. What fanout adds is only
// what is remote: replica groups, breakers, health, validation and the proxy
// arm.
type fanout struct {
	*kbtim.Sharded
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
// remotely as one kbtim.Sharded (one "dir" fetch per kind from the first live
// replica), and verifies every reachable replica serves byte-identical
// preludes.
//
// Backends that are down at startup do NOT abort the open: as long as each
// group keeps >= 1 live replica the router starts DEGRADED — the dead
// replicas' breakers are forced open and the background probe loop
// re-validates and re-admits them when they come back. A reachable replica
// that disagrees with its group (different index file, missing kind) is a
// configuration error and does abort: it can never be safely admitted.
//
// Every group must serve the same index kinds, each with one header Shape
// (|V|, |T|, K): OpenRemoteSharded refuses anything else and names the shard.
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
	// One keep-alive transport serves every router→backend call — proxied
	// queries, health probes, and artifact traffic alike — so a backend's
	// warm connections are shared across paths instead of competing pools.
	tr := remote.NewTransport()
	f := &fanout{
		hc:           &http.Client{Transport: tr}, // per-request contexts bound proxy calls
		artifactHC:   &http.Client{Timeout: cfg.proxyTimeout, Transport: tr},
		healthTTL:    cfg.healthTTL,
		probeTimeout: cfg.probeTimeout,
		proxyTimeout: cfg.proxyTimeout,
		brkCfg:       cfg.breaker,
	}
	grps := make([]*remote.Group, len(groups))
	for si, urls := range groups {
		g := &shardGroup{f: f, shard: si}
		clients := make([]*remote.Client, len(urls))
		for i, u := range urls {
			n := &fanoutNode{url: u, shard: si, client: remote.NewClient(u, f.artifactHC)}
			g.nodes = append(g.nodes, n)
			clients[i] = n.client
		}
		g.grp = remote.NewGroup(clients, groupHealth{g})
		grps[si] = g.grp
		f.groups = append(f.groups, g)
		f.nodes = append(f.nodes, g.nodes...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.proxyTimeout)
	defer cancel()
	var err error
	f.Sharded, err = kbtim.OpenRemoteSharded(ctx, grps, cfg.mode, kbtim.Options{
		DecodedCacheBytes: cfg.decBudget,
		QueryParallelism:  cfg.queryPar,
	})
	if err != nil {
		return nil, err
	}
	for _, g := range f.groups {
		if err := g.census(cfg.proxyTimeout); err != nil {
			return nil, err
		}
	}
	if !cfg.noProbeLoop {
		f.stopProbe = make(chan struct{})
		f.probeWG.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// census checks every replica of g against the group's reference preludes,
// within timeout: a reachable replica that disagrees byte-for-byte aborts the
// open, an unreachable one starts behind an open breaker and is re-validated
// by the probe loop when it comes back.
func (g *shardGroup) census(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for ni, n := range g.nodes {
		err := g.validateNode(ctx, ni)
		switch {
		case err == nil:
		case errors.Is(err, remote.ErrReplicaMismatch), errors.Is(err, remote.ErrNotServed):
			return fmt.Errorf("backend %s is not a replica of shard %d: %w", n.url, g.shard, err)
		default:
			n.brk.forceOpen(time.Now(), g.f.brkCfg)
		}
	}
	return nil
}

// validateNode checks replica ni of g against the group's reference preludes
// for every kind the group serves and, on success, marks it admitted.
func (g *shardGroup) validateNode(ctx context.Context, ni int) error {
	if err := g.grp.Validate(ctx, ni); err != nil {
		return err
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

// Close stops the background probe loop and closes the remote shards. The
// HTTP clients hold no goroutines of their own.
func (f *fanout) Close() error {
	f.closeOnce.Do(func() {
		if f.stopProbe != nil {
			close(f.stopProbe)
			f.probeWG.Wait()
		}
		f.Sharded.Close()
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
		res, retryable, err := f.proxyOnce(ctx, n, body, so.Emit)
		if err == nil {
			n.proxied.Add(1)
			if attempt > 0 {
				f.proxyFailovers.Add(1)
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
//
// With emit set the attempt asks for the owner's NDJSON stream and, once the
// whole reply has arrived, replays its seed records verbatim — the owner's
// own spread_lb values, bit for bit. Nothing is emitted before the reply is
// complete, so a retry on another replica cannot duplicate emissions.
func (f *fanout) proxyOnce(ctx context.Context, n *fanoutNode, body []byte, emit kbtim.EmitFunc) (*kbtim.Result, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, f.proxyTimeout)
	defer cancel()
	url := n.url + "/query"
	if emit != nil {
		url += "?stream=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
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
	// A batch reply is one queryResponse; a stream is seed records ending in
	// a done record that carries the queryResponse, or the query's error when
	// it failed after seeds were out — a verdict as deterministic as a 4xx.
	dec := json.NewDecoder(resp.Body)
	var recs []streamSeedRecord
	for {
		var line struct {
			streamSeedRecord
			streamDoneRecord
			Error string `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			if ctx.Err() == nil {
				f.observeNode(n, err)
			}
			return nil, true, fmt.Errorf("backend %s: decoding reply: %w", n.url, err)
		}
		if emit != nil && !line.Done {
			recs = append(recs, line.streamSeedRecord)
			continue
		}
		f.observeNode(n, nil)
		if line.Error != "" {
			return nil, false, errors.New(line.Error)
		}
		for _, r := range recs {
			emit(r.Seed, r.Marginal, r.SpreadLB)
		}
		return line.result(), false, nil
	}
}

// Query implements backend: a query whose topics one group owns is proxied
// whole (emitting once the reply is in); a spanning query is Sharded.Query
// over the remote shards, certifying and emitting seed by seed.
func (f *fanout) Query(ctx context.Context, s kbtim.Strategy, q kbtim.Query, so kbtim.StreamOptions) (*kbtim.Result, error) {
	if gi, ok := f.colocated(q.Topics); ok {
		f.proxCnt.Add(1)
		return f.proxy(ctx, gi, s, q, so)
	}
	f.scatCnt.Add(1)
	return f.Sharded.Query(ctx, s, q, so)
}

// colocated returns the group owning every topic, if one does. An
// out-of-space keyword has no owner; the shard map routes it to group 0, so
// the index reports "outside topic space", as a single engine would.
func (f *fanout) colocated(topics []int) (int, bool) {
	if len(topics) == 0 {
		return 0, false
	}
	gi := f.Owner(topics[0])
	for _, w := range topics[1:] {
		if f.Owner(w) != gi {
			return 0, false
		}
	}
	return gi, true
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
		Mode:            string(f.Mode()),
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
