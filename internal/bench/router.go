package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/remote"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// RouterThroughputPoint is one (topology, worker count) measurement of the
// cross-node serving experiment.
type RouterThroughputPoint struct {
	Family Family
	// Topology is "1-engine" (one local index), "2-shard box" (in-process
	// scatter-gather over two local shard indexes), or "2-node router"
	// (two HTTP nodes: co-located queries proxied whole, spanning queries
	// merged locally with artifact fetches over the wire).
	Topology string
	Workers  int
	Queries  int
	// Scatter is the fraction of workload queries spanning both shards
	// (identical across topologies; only its cost moves).
	Scatter float64
	QPS     float64
	MeanMS  float64
	// WireKB is the artifact payload the router pulled over HTTP during
	// this point (zero for the local topologies; proxied query traffic is
	// not artifact wire and is excluded).
	WireKB float64
	// RoundTripsPerQuery is the mean artifact wire requests (batch POSTs) per
	// query of this point — the latency currency batching spends down: one
	// per backend per planning round, not one per keyword-partition.
	RoundTripsPerQuery float64
}

// routerWorkers is the closed-loop client sweep of the router experiment.
func routerWorkers(env *Env) []int { return []int{1, 4, 16} }

// benchNode is one in-process "remote" node of the router arm: a local
// shard index served over httptest with the real artifact protocol plus a
// minimal /query endpoint for the proxied fast path.
type benchNode struct {
	srv    *httptest.Server
	client *remote.Client
	remote *irrindex.Index
}

// benchQueryHandler answers the proxied fast path over one local index —
// the minimal stand-in for a kbtim-serve node's /query.
func benchQueryHandler(idx *irrindex.Index) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Topics []int `json:"topics"`
			K      int   `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := idx.QueryCtx(r.Context(), topic.Query{Topics: req.Topics, K: req.K})
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"seeds": res.Seeds, "est_spread": res.EstSpread,
			"num_rr_sets": res.NumRRSets, "partitions_loaded": res.PartitionsLoaded,
		})
	}
}

// RunRouterThroughput measures queries/sec of the same workload over three
// topologies at CONSTANT total decoded-cache budget: one engine (full
// index, whole budget), an in-process 2-shard box (half budget per shard),
// and a 2-node HTTP router (half budget per node on the ROUTER side,
// fronting the wire the way a serve-side cache fronts the disk). Results
// are identical across the axis — the parity tests pin that — so the
// experiment isolates what crossing process and network boundaries costs,
// and what the artifact cache buys back.
func RunRouterThroughput(ctx context.Context, env *Env, f Family) ([]RouterThroughputPoint, error) {
	g, prof, err := env.Dataset(f, env.defaultSize(f))
	if err != nil {
		return nil, err
	}
	queries, err := env.Queries(env.Cfg.QueriesPerPoint*2, env.Cfg.DefaultLen, env.Cfg.DefaultK)
	if err != nil {
		return nil, err
	}
	queriesPerWorker := 2 * len(queries)
	var universe []int
	for t := 0; t < prof.NumTopics(); t++ {
		if prof.TFSum(t) > 0 {
			universe = append(universe, t)
		}
	}
	const cacheBudget = 16 << 20
	const shards = 2

	sm, err := shardmap.New(shards, shardmap.Hash, prof.NumTopics())
	if err != nil {
		return nil, err
	}
	parts := sm.Partition(universe)
	scattered := 0
	for _, q := range queries {
		if len(sm.Shards(q.Topics)) > 1 {
			scattered++
		}
	}
	scatter := float64(scattered) / float64(len(queries))

	// buildIRR builds one IRR index over the given topics (nil = all) and
	// opens it with the given decoded-cache budget (0 = none).
	var files []*diskio.File
	closeFiles := func() {
		for _, fo := range files {
			fo.Close()
		}
	}
	buildIRR := func(name string, topics []int, cache int64) (*irrindex.Index, error) {
		path := filepath.Join(env.dir, fmt.Sprintf("router-%s-%s.idx", f, name))
		fo, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		_, berr := irrindex.Build(fo, g, prop.IC{}, prof, env.wrisConfig(), irrindex.BuildOptions{
			Compression:   codec.Delta,
			PartitionSize: env.Cfg.PartitionSize,
			Topics:        topics,
		})
		if cerr := fo.Close(); berr == nil {
			berr = cerr
		}
		if berr != nil {
			return nil, berr
		}
		file, err := diskio.Open(path, diskio.NewCounter())
		if err != nil {
			return nil, err
		}
		files = append(files, file)
		idx, err := irrindex.Open(file)
		if err != nil {
			return nil, err
		}
		if cache > 0 {
			idx.SetDecodedCache(objcache.NewSharded(cache, 0))
		}
		return idx, nil
	}
	defer closeFiles()

	var points []RouterThroughputPoint
	addPoints := func(topology string, query func(topic.Query) (*irrindex.QueryResult, error), wire func() (bytes, trips float64)) error {
		for _, workers := range routerWorkers(env) {
			beforeB, beforeT := 0.0, 0.0
			if wire != nil {
				beforeB, beforeT = wire()
			}
			p, err := runClosedLoop(query, queries, workers, queriesPerWorker)
			if err != nil {
				return err
			}
			pt := RouterThroughputPoint{
				Family: f, Topology: topology, Workers: workers,
				Queries: p.Queries, Scatter: scatter, QPS: p.QPS, MeanMS: p.MeanMS,
			}
			if wire != nil {
				afterB, afterT := wire()
				pt.WireKB = (afterB - beforeB) / 1024
				if p.Queries > 0 {
					pt.RoundTripsPerQuery = (afterT - beforeT) / float64(p.Queries)
				}
			}
			points = append(points, pt)
		}
		return nil
	}

	// Topology 1: one engine, one full index, the whole cache budget.
	full, err := buildIRR("full", nil, cacheBudget)
	if err != nil {
		return nil, err
	}
	if err := addPoints("1-engine", func(q topic.Query) (*irrindex.QueryResult, error) {
		return full.QueryCtx(ctx, q)
	}, nil); err != nil {
		return nil, err
	}

	// Topology 2: in-process 2-shard box (PR 4's Sharded data plane).
	boxIdx := make([]*irrindex.Index, shards)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if boxIdx[s], err = buildIRR(fmt.Sprintf("box%d", s), part, cacheBudget/shards); err != nil {
			return nil, err
		}
	}
	boxOwner := func(w int) *irrindex.Index {
		if w < 0 || w >= prof.NumTopics() {
			return nil
		}
		return boxIdx[sm.Owner(w)]
	}
	if err := addPoints("2-shard box", func(q topic.Query) (*irrindex.QueryResult, error) {
		return irrindex.QueryMultiStreamCtx(ctx, boxOwner, q, wris.StreamOptions{})
	}, nil); err != nil {
		return nil, err
	}

	// Topology 3: 2-node HTTP router. Each node serves its shard index
	// (no node-side decoded cache: the budget lives router-side, keeping
	// the total constant) over the real artifact protocol + a /query
	// endpoint; the router proxies co-located queries and scatter-merges
	// spanning ones over remote-backed indexes.
	nodes := make([]*benchNode, shards)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		servedIdx, err := buildIRR(fmt.Sprintf("node%d", s), part, 0)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		src := remote.IndexSource{IRR: servedIdx}
		mux.Handle(remote.BatchPath, remote.NewBatchHandler(src))
		mux.Handle("/query", benchQueryHandler(servedIdx))
		srv := httptest.NewServer(mux)
		defer srv.Close()
		client := remote.NewClient(srv.URL, nil)
		// Open through a (single-replica) Group so the benchmark walks the
		// production failover fetch path, pricing its overhead into the arm.
		rIdx, err := remote.NewGroup([]*remote.Client{client}, nil).OpenIRR(ctx)
		if err != nil {
			return nil, err
		}
		rIdx.SetDecodedCache(objcache.NewSharded(cacheBudget/shards, 0))
		// Match the real router's default query parallelism: it also arms
		// the speculative batch lookahead, so spanning queries plan multi-
		// round chunks instead of one round trip per partition step.
		rIdx.SetQueryParallelism(2)
		nodes[s] = &benchNode{srv: srv, client: client, remote: rIdx}
	}
	remoteOwner := func(w int) *irrindex.Index {
		if w < 0 || w >= prof.NumTopics() {
			return nil
		}
		return nodes[sm.Owner(w)].remote
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	routerQuery := func(q topic.Query) (*irrindex.QueryResult, error) {
		owners := sm.Shards(q.Topics)
		if len(owners) > 1 {
			return irrindex.QueryMultiStreamCtx(ctx, remoteOwner, q, wris.StreamOptions{})
		}
		// Co-located fast path: proxy the whole query to the owning node.
		t0 := time.Now()
		body, err := json.Marshal(map[string]any{"topics": q.Topics, "k": q.K})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			nodes[owners[0]].srv.URL+"/query", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return nil, fmt.Errorf("proxied query: %s: %s", resp.Status, msg)
		}
		var qr struct {
			Seeds            []uint32 `json:"seeds"`
			EstSpread        float64  `json:"est_spread"`
			NumRRSets        int      `json:"num_rr_sets"`
			PartitionsLoaded int      `json:"partitions_loaded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return nil, err
		}
		return &irrindex.QueryResult{
			Result: wris.Result{
				Seeds:     qr.Seeds,
				EstSpread: qr.EstSpread,
				NumRRSets: qr.NumRRSets,
				Elapsed:   time.Since(t0),
			},
			PartitionsLoaded: qr.PartitionsLoaded,
		}, nil
	}
	wireStats := func() (bytes, trips float64) {
		for _, n := range nodes {
			if n != nil {
				ws := n.client.Stats()
				bytes += float64(ws.Bytes)
				trips += float64(ws.Fetches)
			}
		}
		return bytes, trips
	}
	if err := addPoints("2-node router", routerQuery, wireStats); err != nil {
		return nil, err
	}
	return points, nil
}

// RouterThroughput prints the cross-node serving experiment.
func RouterThroughput(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Router serving: one engine vs in-process shards vs 2-node HTTP router",
		"dataset", "topology", "workers", "queries", "scatter", "q/s", "mean-ms", "wire-KB", "rt/q")
	families := []Family{News}
	if env.Cfg.Full {
		families = []Family{News, Twitter}
	}
	for _, f := range families {
		points, err := RunRouterThroughput(ctx, env, f)
		if err != nil {
			return err
		}
		for _, p := range points {
			t.add(string(f), p.Topology, p.Workers, p.Queries,
				fmt.Sprintf("%.2f", p.Scatter),
				fmt.Sprintf("%.1f", p.QPS), fmt.Sprintf("%.2f", p.MeanMS),
				fmt.Sprintf("%.0f", p.WireKB), fmt.Sprintf("%.1f", p.RoundTripsPerQuery))
		}
	}
	t.addf("(constant 16 MiB total decoded cache per topology; wire-KB = artifact bytes the router fetched; rt/q = artifact wire round trips per query; results identical across topologies)")
	return t.write(w)
}
