package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
)

// backend is the query surface the server routes to: a single
// *kbtim.Engine, a *kbtim.Sharded multi-engine deployment, or a cross-node
// fanout router — the handlers are identical either way. Queries carry the
// request context, so a disconnected client cancels its in-flight query
// instead of burning a worker slot to completion. Query takes StreamOptions:
// batch responses are the zero-option case of the same call, so the served
// pipeline is anytime end to end.
type backend interface {
	Query(context.Context, kbtim.Strategy, kbtim.Query, kbtim.StreamOptions) (*kbtim.Result, error)
	IndexedKeywords() []int
	CacheStats() (rr, irr diskio.CacheStats)
	DecodedCacheStats() (rr, irr objcache.Stats)
}

// shardStatser is the optional per-shard breakdown a sharded backend
// provides; /stats includes a shard section when the backend has one.
type shardStatser interface {
	NumShards() int
	Mode() kbtim.ShardMode
	ShardStats() []kbtim.ShardStat
}

// healthChecker is the optional deep health probe a backend provides;
// /healthz consults it (the fanout router checks every downstream node) and
// reports 503 with the failure instead of a bare ok.
type healthChecker interface {
	CheckHealth(ctx context.Context) error
}

// routerStatser is the optional cross-node breakdown the fanout router
// provides; /stats includes a router section (per-backend traffic, wire
// bytes, and each node's own /stats) when the backend has one.
type routerStatser interface {
	RouterStats(ctx context.Context) *routerStatsJSON
}

// Server exposes a query backend over HTTP/JSON. Query execution runs
// through a bounded worker pool: at most `workers` queries execute at once,
// additional requests wait in line (respecting request-context
// cancellation) rather than piling unbounded load onto the engines. (A
// sharded backend additionally bounds each shard's concurrency with its own
// per-shard pool.)
type Server struct {
	eng     backend
	sem     chan struct{}
	started time.Time

	// defaultDeadline, when nonzero, caps every query that does not carry its
	// own deadline_ms. Set before the listener starts; not synchronized.
	defaultDeadline time.Duration

	served          atomic.Int64 // queries answered successfully
	failed          atomic.Int64 // queries that reached an engine and errored
	rejected        atomic.Int64 // requests refused before dispatch (client errors)
	canceled        atomic.Int64 // clients that disconnected before an answer
	deadlinePartial atomic.Int64 // served queries cut short by an anytime deadline
	inflight        atomic.Int64
	totalNS         atomic.Int64 // summed service time of served queries
}

// NewServer wraps a backend with a pool of the given size (minimum 1).
func NewServer(eng backend, workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	return &Server{
		eng:     eng,
		sem:     make(chan struct{}, workers),
		started: time.Now(),
	}
}

// SetDefaultDeadline makes every query without its own deadline_ms an
// anytime query with budget d (zero disables the default). A query that hits
// the deadline answers 200 with its best certified prefix and partial=true
// instead of erroring.
func (s *Server) SetDefaultDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.defaultDeadline = d
}

// Handler returns the route table. Backends that can serve raw index
// artifacts (a single Engine) additionally expose the cross-node fetch
// endpoint a fanout router reads through.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/keywords", s.handleKeywords)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if src, ok := s.eng.(remote.Source); ok {
		mux.Handle(remote.BatchPath, remote.NewBatchHandler(src))
	}
	return mux
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Topics is the advertisement keyword set Q.T.
	Topics []int `json:"topics"`
	// K is the seed budget Q.k.
	K int `json:"k"`
	// Strategy selects the processing path: "irr" (default) or "rr".
	Strategy string `json:"strategy,omitempty"`
	// DeadlineMS, when positive, makes this an anytime query: after that many
	// milliseconds the reply is the best certified seed prefix so far, marked
	// partial=true, rather than an error. Zero means no deadline (or the
	// server's -deadline default, if one is configured).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ioJSON mirrors kbtim.IOStats for the wire (field for field, so the two
// convert directly).
type ioJSON struct {
	SequentialReads int64 `json:"sequential_reads"`
	RandomReads     int64 `json:"random_reads"`
	BytesRead       int64 `json:"bytes_read"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	DecodedHits     int64 `json:"decoded_hits"`
	DecodedMisses   int64 `json:"decoded_misses"`
}

// queryResponse is the POST /query reply. Marginals ride along so a fanout
// router's proxied fast path loses nothing against its local scatter path
// (and so parity across deployments is checkable over the wire).
type queryResponse struct {
	Strategy         string   `json:"strategy"`
	Seeds            []uint32 `json:"seeds"`
	Marginals        []int    `json:"marginals,omitempty"`
	EstSpread        float64  `json:"est_spread"`
	NumRRSets        int      `json:"num_rr_sets"`
	PartitionsLoaded int      `json:"partitions_loaded,omitempty"`
	IO               ioJSON   `json:"io"`
	ElapsedMS        float64  `json:"elapsed_ms"`
	// Partial reports that an anytime deadline cut the query short: Seeds is
	// a certified prefix of the full greedy answer (every listed seed would
	// appear, in this order, in the undeadlined run), not a guess.
	Partial bool `json:"partial"`
}

// newQueryResponse is the one Result → wire conversion, shared by the handler
// and (through result, its inverse) the router's proxied path.
func newQueryResponse(strategy kbtim.Strategy, res *kbtim.Result) queryResponse {
	seeds := res.Seeds
	if seeds == nil {
		// Seeds is a certified prefix; the empty prefix is [], not null.
		seeds = []uint32{}
	}
	return queryResponse{
		Strategy:         string(strategy),
		Seeds:            seeds,
		Marginals:        res.Marginals,
		EstSpread:        res.EstSpread,
		NumRRSets:        res.NumRRSets,
		PartitionsLoaded: res.PartitionsLoaded,
		IO:               ioJSON(res.IO),
		ElapsedMS:        res.Elapsed.Seconds() * 1000,
		Partial:          res.Partial,
	}
}

// result maps a backend's reply back into the Result it was encoded from.
func (qr *queryResponse) result() *kbtim.Result {
	return &kbtim.Result{
		Seeds:            qr.Seeds,
		Marginals:        qr.Marginals,
		EstSpread:        qr.EstSpread,
		NumRRSets:        qr.NumRRSets,
		PartitionsLoaded: qr.PartitionsLoaded,
		IO:               kbtim.IOStats(qr.IO),
		Elapsed:          time.Duration(qr.ElapsedMS * float64(time.Millisecond)),
		Partial:          qr.Partial,
	}
}

// streamSeedRecord is one NDJSON line of a /query?stream=1 reply: a seed the
// moment it is certified, with its marginal and the certified spread lower
// bound of the emitted prefix so far.
type streamSeedRecord struct {
	Seed     uint32  `json:"seed"`
	Marginal int     `json:"marginal"`
	SpreadLB float64 `json:"spread_lb"`
}

// streamDoneRecord terminates a /query?stream=1 reply: the full batch
// response (final spread, stats, partial marker) plus done=true. A query
// that fails after seeds already streamed instead ends with
// {"done":true,"error":...} — the HTTP status is long gone by then, so the
// failure rides the last line.
type streamDoneRecord struct {
	queryResponse
	Done bool `json:"done"`
}

// cacheJSON mirrors diskio.CacheStats for the wire.
type cacheJSON struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Entries     int     `json:"entries"`
	BytesCached int64   `json:"bytes_cached"`
	BudgetBytes int64   `json:"budget_bytes"`
}

func toCacheJSON(s diskio.CacheStats) cacheJSON {
	return cacheJSON{
		Hits:        s.Hits,
		Misses:      s.Misses,
		HitRate:     s.HitRate(),
		Entries:     s.Entries,
		BytesCached: s.BytesCached,
		BudgetBytes: s.BudgetBytes,
	}
}

// decodedCacheJSON mirrors objcache.Stats for the wire. hits+misses+shared is
// the lookup count: an IRR query makes one lookup per IP table and per
// partition it consumes, an RR query ONE per keyword — its θ^Q_w sets prefix,
// the only RR artifact there is to cache (the per-vertex lists are derived
// from it, not looked up). The same holds for a reply's io.decoded_hits and
// io.decoded_misses.
type decodedCacheJSON struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Shared      int64   `json:"shared"` // singleflight-collapsed loads
	HitRate     float64 `json:"hit_rate"`
	Entries     int     `json:"entries"`
	BytesCached int64   `json:"bytes_cached"`
	BudgetBytes int64   `json:"budget_bytes"`
}

func toDecodedCacheJSON(s objcache.Stats) decodedCacheJSON {
	return decodedCacheJSON{
		Hits:        s.Hits,
		Misses:      s.Misses,
		Shared:      s.Shared,
		HitRate:     s.HitRate(),
		Entries:     s.Entries,
		BytesCached: s.BytesCached,
		BudgetBytes: s.BudgetBytes,
	}
}

// shardJSON is one shard's /stats breakdown.
type shardJSON struct {
	Shard      int              `json:"shard"`
	Keywords   int              `json:"keywords"`
	InFlight   int64            `json:"in_flight"`
	RRCache    cacheJSON        `json:"rr_cache"`
	IRRCache   cacheJSON        `json:"irr_cache"`
	RRDecoded  decodedCacheJSON `json:"rr_decoded_cache"`
	IRRDecoded decodedCacheJSON `json:"irr_decoded_cache"`
}

// routerBackendJSON is one downstream replica's slice of the router section.
type routerBackendJSON struct {
	URL string `json:"url"`
	// Shard is the replica group this node belongs to.
	Shard int `json:"shard"`
	// Healthy is the node's live /healthz verdict at stats time (false
	// without a probe when its breaker is open).
	Healthy bool `json:"healthy"`
	// Breaker is the node's circuit-breaker state: "closed" (traffic
	// flows), "open" (skipped, awaiting re-probe), or "half-open" (a
	// re-probe is in flight). BreakerTrips counts how many times it opened.
	Breaker      string `json:"breaker"`
	BreakerTrips int64  `json:"breaker_trips"`
	// Validated reports that the replica's index preludes were checked
	// byte-identical to its group; false means it was down at startup and
	// has not yet passed the re-admission probe.
	Validated bool `json:"validated"`
	// Proxied counts whole queries this replica answered on the fast path.
	Proxied int64 `json:"proxied"`
	// ArtifactFetches/WireBytes are the cumulative artifact traffic the
	// router pulled from this node for spanning queries: ArtifactFetches
	// counts wire round trips (batch POSTs), WireBytes their total payload,
	// BatchedUnits the artifact units those replies carried.
	ArtifactFetches int64 `json:"artifact_fetches"`
	WireBytes       int64 `json:"wire_bytes"`
	BatchedUnits    int64 `json:"batched_units"`
	// Stats embeds the node's own /stats reply verbatim (null if the node
	// did not answer in time).
	Stats json.RawMessage `json:"stats,omitempty"`
}

// routerStatsJSON is the /stats router section: the fan-out picture plus
// each downstream replica's own counters, so one scrape sees the whole
// deployment.
type routerStatsJSON struct {
	Mode string `json:"mode"`
	// ProxyTimeoutSec is the configured -proxy-timeout bound on every
	// router→backend query call, surfaced so a scrape can tell how long a
	// slow backend is allowed to stall the router. HealthTTLSec and
	// ProbeTimeoutSec mirror -health-ttl and -probe-timeout.
	ProxyTimeoutSec float64 `json:"proxy_timeout_sec"`
	HealthTTLSec    float64 `json:"health_ttl_sec"`
	ProbeTimeoutSec float64 `json:"probe_timeout_sec"`
	Proxied         int64   `json:"proxied"`
	Scattered       int64   `json:"scattered"`
	// Retries counts failed router→backend attempts (proxied queries and
	// artifact fetches) that were re-issued to another replica; Failovers
	// counts requests that then SUCCEEDED on a non-first replica. Degraded
	// is the number of replicas currently behind an open breaker.
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Degraded  int   `json:"degraded"`
	// FetchRequests is the total artifact round trips the router issued
	// (batch POSTs); BatchedUnits is how many artifact units their replies
	// carried. UnitsPerRequest = BatchedUnits/FetchRequests — the wire
	// rounds batching saves; a healthy deployment keeps it well above 1.
	FetchRequests   int64               `json:"fetch_requests"`
	BatchedUnits    int64               `json:"batched_units"`
	UnitsPerRequest float64             `json:"units_per_request"`
	Backends        []routerBackendJSON `json:"backends"`
}

// statsResponse is the GET /stats reply. The cache sections aggregate over
// every shard; Shards carries the per-shard breakdown when the backend is a
// sharded deployment, Router the per-node breakdown when it is a cross-node
// fanout.
type statsResponse struct {
	UptimeSec float64 `json:"uptime_sec"`
	Workers   int     `json:"workers"`
	InFlight  int64   `json:"in_flight"`
	Served    int64   `json:"served"`
	Failed    int64   `json:"failed"`
	Rejected  int64   `json:"rejected"`
	Canceled  int64   `json:"canceled"`
	// DeadlinePartial counts served queries whose anytime deadline expired
	// first, so the answer was a certified prefix rather than the full top-k.
	DeadlinePartial int64            `json:"deadline_partial"`
	MeanLatencyMS   float64          `json:"mean_latency_ms"`
	NumShards       int              `json:"num_shards"`
	ShardMode       string           `json:"shard_mode,omitempty"`
	Shards          []shardJSON      `json:"shards,omitempty"`
	Router          *routerStatsJSON `json:"router,omitempty"`
	RRCache         cacheJSON        `json:"rr_cache"`
	IRRCache        cacheJSON        `json:"irr_cache"`
	RRDecoded       decodedCacheJSON `json:"rr_decoded_cache"`
	IRRDecoded      decodedCacheJSON `json:"irr_decoded_cache"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("kbtim-serve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// validateQueryRequest rejects malformed client input before it reaches an
// engine: missing/duplicate topics, a non-positive k, unknown strategies and
// an out-of-range deadline_ms are client errors (400), not query failures.
// Keyword range is left to the engine, which knows the topic space. Returns
// the effective strategy (IRR when unset).
func validateQueryRequest(req *queryRequest) (kbtim.Strategy, error) {
	strategy := kbtim.Strategy(req.Strategy)
	if strategy == "" {
		strategy = kbtim.StrategyIRR
	}
	if strategy != kbtim.StrategyIRR && strategy != kbtim.StrategyRR {
		return "", fmt.Errorf("unknown strategy %q (want rr or irr)", req.Strategy)
	}
	if req.K <= 0 {
		return "", fmt.Errorf("k must be positive, got %d", req.K)
	}
	if len(req.Topics) == 0 {
		return "", fmt.Errorf("topics must name at least one keyword")
	}
	seen := make(map[int]bool, len(req.Topics))
	for _, w := range req.Topics {
		if seen[w] {
			return "", fmt.Errorf("duplicate topic %d", w)
		}
		seen[w] = true
	}
	if req.DeadlineMS < 0 {
		return "", fmt.Errorf("deadline_ms must be non-negative, got %d", req.DeadlineMS)
	}
	// Past this the conversion to a time.Duration overflows int64 and the
	// deadline lands in the past.
	if req.DeadlineMS > math.MaxInt64/int64(time.Millisecond) {
		return "", fmt.Errorf("deadline_ms too large, got %d", req.DeadlineMS)
	}
	return strategy, nil
}

// ndjsonWriter emits one JSON object per line on a /query?stream=1 reply.
// Headers go out lazily with the first record, so a query that errors before
// certifying anything still gets a real HTTP status; once a record is out,
// the stream is committed and later failures ride the terminal line. Every
// record is flushed immediately — the first certified seed reaches the
// client while the rest of the query is still running.
type ndjsonWriter struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	started bool
}

func (nw *ndjsonWriter) record(v interface{}) {
	if !nw.started {
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		nw.w.WriteHeader(http.StatusOK)
		nw.enc = json.NewEncoder(nw.w)
		nw.started = true
	}
	if err := nw.enc.Encode(v); err != nil {
		log.Printf("kbtim-serve: encode stream record: %v", err)
		return
	}
	if f, ok := nw.w.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	// A query is a handful of ints; cap the body so a hostile payload
	// cannot allocate unbounded memory before validation runs.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	strategy, err := validateQueryRequest(&req)
	if err != nil {
		// Malformed client input is rejected before dispatch: a 400 with a
		// JSON error, counted in `rejected` — not surfaced as an engine
		// error inflating `failed`.
		s.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Wait for a pool slot; a closed connection abandons the wait. A client
	// that hung up is not a server failure — it gets its own counter, and
	// nothing is written to the dead connection.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.canceled.Add(1)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// The request context rides into the query itself: when the client
	// disconnects, the engine observes the cancellation at its next
	// keyword-load or partition-round boundary and aborts, releasing this
	// worker slot within one round instead of after a full Algorithm 2/4 run.
	q := kbtim.Query{Topics: req.Topics, K: req.K}

	var so kbtim.StreamOptions
	if req.DeadlineMS > 0 {
		so.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	} else if s.defaultDeadline > 0 {
		so.Deadline = time.Now().Add(s.defaultDeadline)
	}
	stream := r.URL.Query().Get("stream") == "1"
	var sw *ndjsonWriter
	if stream {
		sw = &ndjsonWriter{w: w}
		so.Emit = func(seed kbtim.Seed, marginal int, spreadLB float64) {
			sw.record(streamSeedRecord{Seed: uint32(seed), Marginal: marginal, SpreadLB: spreadLB})
		}
	}

	start := time.Now()
	res, err := s.eng.Query(r.Context(), strategy, q, so)
	if err != nil {
		if r.Context().Err() != nil {
			// The client vanished mid-query (the engine aborted on the
			// canceled context, or the error raced the disconnect); skip the
			// error body.
			s.canceled.Add(1)
			return
		}
		s.failed.Add(1)
		if sw != nil && sw.started {
			// Seeds already streamed; the 200 is committed. Report the
			// failure on the terminal line instead of a status code.
			sw.record(map[string]interface{}{"done": true, "error": err.Error()})
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if r.Context().Err() != nil {
		// The client vanished while the query ran, even though it
		// succeeded: don't write to the dead connection, don't count it
		// served, and keep its latency out of the mean.
		s.canceled.Add(1)
		return
	}
	s.served.Add(1)
	s.totalNS.Add(time.Since(start).Nanoseconds())
	if res.Partial {
		s.deadlinePartial.Add(1)
	}
	resp := newQueryResponse(strategy, res)
	if sw != nil {
		sw.record(streamDoneRecord{queryResponse: resp, Done: true})
		return
	}
	// Batch replies stream-encode too: commit the status and flush the
	// headers before encoding, then encode straight onto the wire instead
	// of buffering the whole body — a slow client starts reading at once.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("kbtim-serve: encode response: %v", err)
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleKeywords(w http.ResponseWriter, r *http.Request) {
	kws := s.eng.IndexedKeywords()
	if kws == nil {
		writeError(w, http.StatusServiceUnavailable, "no index attached")
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"topics": kws,
		"count":  len(kws),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	served := s.served.Load()
	mean := 0.0
	if served > 0 {
		mean = float64(s.totalNS.Load()) / float64(served) / 1e6
	}
	rrCache, irrCache := s.eng.CacheStats()
	rrDec, irrDec := s.eng.DecodedCacheStats()
	resp := statsResponse{
		UptimeSec:       time.Since(s.started).Seconds(),
		Workers:         cap(s.sem),
		InFlight:        s.inflight.Load(),
		Served:          served,
		Failed:          s.failed.Load(),
		Rejected:        s.rejected.Load(),
		Canceled:        s.canceled.Load(),
		DeadlinePartial: s.deadlinePartial.Load(),
		MeanLatencyMS:   mean,
		NumShards:       1,
		RRCache:         toCacheJSON(rrCache),
		IRRCache:        toCacheJSON(irrCache),
		RRDecoded:       toDecodedCacheJSON(rrDec),
		IRRDecoded:      toDecodedCacheJSON(irrDec),
	}
	if rs, ok := s.eng.(routerStatser); ok {
		resp.Router = rs.RouterStats(r.Context())
	}
	if sh, ok := s.eng.(shardStatser); ok {
		resp.NumShards = sh.NumShards()
		resp.ShardMode = string(sh.Mode())
		for _, st := range sh.ShardStats() {
			resp.Shards = append(resp.Shards, shardJSON{
				Shard:      st.Shard,
				Keywords:   st.Keywords,
				InFlight:   st.InFlight,
				RRCache:    toCacheJSON(st.RRCache),
				IRRCache:   toCacheJSON(st.IRRCache),
				RRDecoded:  toDecodedCacheJSON(st.RRDecoded),
				IRRDecoded: toDecodedCacheJSON(st.IRRDecoded),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if hc, ok := s.eng.(healthChecker); ok {
		if err := hc.CheckHealth(r.Context()); err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
