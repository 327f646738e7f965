package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"kbtim/internal/gen"
	"kbtim/internal/rng"
)

// sizing is the one constant set every workload shares: the synthetic
// dataset and the index parameters. The -seed argument never reaches it, so
// index_mb and the build work are the same on every run.
type sizing struct {
	Users, Degree, Topics int
	DatasetSeed           uint64
	Epsilon               float64
	K, Delta, MaxTheta    int
	EngineSeed            uint64
}

// refSizing is sized so that ONE index build takes ≈2.5 s on the 2-core
// reference box: the contract gives 92 runs 3420 s, every run sets up three
// times (setup_s is a median), and churn_sharded builds two indexes per
// set-up. ISSUE 12's 8 000-user / 35 MB sizing needs ≈8 s per build and does
// not fit that cap.
var refSizing = sizing{
	Users: 4000, Degree: 14, Topics: 32, DatasetSeed: 20150801,
	Epsilon: 0.5, K: 30, Delta: 20, MaxTheta: 40000, EngineSeed: 1,
}

// shape is the deployment a workload drives.
type shape string

const (
	shapeSingle  shape = "single"  // one kbtim-serve process, one engine
	shapeRouter  shape = "router"  // router process + one backend process per shard
	shapeSharded shape = "sharded" // one process, -shards N in-process engines
)

// workload is one traffic mix. Everything the generator and the servers need
// is here, so a run is a pure function of (workload, -seed, sizing).
type workload struct {
	Name string `json:"name"`
	// Why records the reason the workload exists: which layers it loads and
	// which it bypasses (repeated in BENCHMARK.json and README.md).
	Why   string `json:"why"`
	Shape shape  `json:"shape"`
	// Strategies are cycled by query index ("rr", "irr").
	Strategies []string `json:"strategies"`
	Shards     int      `json:"shards"`
	// CacheMB / DecodedMB are the servers' -cache-mb / -decoded-cache-mb;
	// -1 keeps the server default (32 / 64 MiB). In router shape they apply
	// to the router (decoded only); backends keep the defaults.
	CacheMB   int `json:"cache_mb"`
	DecodedMB int `json:"decoded_cache_mb"`
	// Zipf is the keyword-rank skew exponent (0 = uniform). Rank r is always
	// the r-th indexed keyword of the active window, so the hot set does not
	// move with -seed.
	Zipf  float64 `json:"zipf"`
	MinKw int     `json:"min_keywords"`
	MaxKw int     `json:"max_keywords"`
	K     int     `json:"k"`
	// Clients is the closed-loop client count and the open-loop connection
	// count; never above nproc on the reference box, because the generator
	// shares the cores with the servers.
	Clients int `json:"clients"`
	// ChurnEvery > 0 restricts keywords to a half-universe window that
	// advances by half a window every ChurnEvery queries (by index).
	ChurnEvery int `json:"churn_every"`
	// OpenRate is the frozen open-loop arrival rate in queries/s, about half
	// the closed-loop q/s of the A/A study in AA.md.
	OpenRate float64 `json:"open_rate"`
}

var workloads = []workload{
	{
		Name:  "hot_irr",
		Why:   "one engine, IRR, caches larger than the index, Zipf keywords: irrindex NRA and serve parse/encode do the work; diskio, codec and remote do none (control for storage and wire changes)",
		Shape: shapeSingle, Strategies: []string{"irr"}, Shards: 1,
		CacheMB: -1, DecodedMB: -1, Zipf: 1.0, MinKw: 1, MaxKw: 3, K: 10,
		Clients: 1, OpenRate: 700,
	},
	{
		Name:  "cold_rr",
		Why:   "one engine, RR, both caches off, uniform 3-5 keywords, k=30: every query reads, decodes and merges through diskio, codec, rrindex, coverage and pool; objcache and remote do none",
		Shape: shapeSingle, Strategies: []string{"rr"}, Shards: 1,
		CacheMB: 0, DecodedMB: 0, Zipf: 0, MinKw: 3, MaxKw: 5, K: 30,
		Clients: 1, OpenRate: 55,
	},
	{
		Name:  "router_span",
		Why:   "router plus 2 backend processes, IRR, uniform 3-5 keywords spanning both shards, router cache below the index: remote batch fetches and fanout do the work, which hot_irr bypasses",
		Shape: shapeRouter, Strategies: []string{"irr"}, Shards: 2,
		CacheMB: -1, DecodedMB: 2, Zipf: 0, MinKw: 3, MaxKw: 5, K: 10,
		Clients: 1, OpenRate: 110,
	},
	{
		Name:  "churn_sharded",
		Why:   "one process, 2 hash shards, RR and IRR alternating on one cache budget below the working set, drifting Zipf window, 2 clients: objcache admission/eviction and shard-pool contention; no remote",
		Shape: shapeSharded, Strategies: []string{"rr", "irr"}, Shards: 2,
		CacheMB: -1, DecodedMB: 3, Zipf: 1.0, MinKw: 1, MaxKw: 3, K: 10,
		Clients: 2, ChurnEvery: 500, OpenRate: 150,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one generated request.
type query struct {
	Topics   []int
	K        int
	Strategy string
}

// key identifies a query for the reference memo: replies depend on the topic
// ORDER only through the set, but the server sees the order sent, so the key
// keeps it.
func (q query) key() string { return fmt.Sprint(q.Strategy, q.K, q.Topics) }

// body is the POST /query payload, marshalled before any timing.
func (q query) body() []byte {
	b, err := json.Marshal(struct {
		Topics   []int  `json:"topics"`
		K        int    `json:"k"`
		Strategy string `json:"strategy"`
	}{q.Topics, q.K, q.Strategy})
	if err != nil {
		panic(err) // ints and a string cannot fail to marshal
	}
	return b
}

// generate builds the first n queries of the workload's sequence: a pure
// function of (workload constants, universe, seed). universe is the sorted
// indexed keyword set; the servers only ever see the result.
func generate(wl *workload, universe []int, seed uint64, n int) ([]query, error) {
	window := len(universe)
	if wl.ChurnEvery > 0 && window > 1 {
		window = (window + 1) / 2
	}
	if wl.MaxKw > window {
		return nil, fmt.Errorf("workload %s wants %d keywords from a window of %d", wl.Name, wl.MaxKw, window)
	}
	var alias *rng.Alias
	if wl.Zipf > 0 {
		var err error
		if alias, err = rng.NewAlias(gen.TopicPopularity(window, wl.Zipf)); err != nil {
			return nil, err
		}
	}
	src := rng.New(seed ^ nameHash(wl.Name))
	out := make([]query, n)
	for i := range out {
		offset := 0
		if wl.ChurnEvery > 0 {
			offset = (i / wl.ChurnEvery) * (window / 2)
		}
		nkw := wl.MinKw + src.Intn(wl.MaxKw-wl.MinKw+1)
		topics := make([]int, 0, nkw)
		for len(topics) < nkw {
			rank := 0
			if alias != nil {
				rank = alias.Sample(src)
			} else {
				rank = src.Intn(window)
			}
			w := universe[(offset+rank)%len(universe)]
			if !slices.Contains(topics, w) {
				topics = append(topics, w)
			}
		}
		out[i] = query{Topics: topics, K: wl.K, Strategy: wl.Strategies[i%len(wl.Strategies)]}
	}
	return out, nil
}

// qualityQueries are the 16 fixed queries spread_vs_wris is computed on: the
// workload's own shape (keyword count, k, strategies) under a constant seed,
// so the metric repeats exactly on every run of the same code.
func qualityQueries(wl *workload, universe []int) ([]query, error) {
	fixed := *wl
	fixed.ChurnEvery = 0
	return generate(&fixed, universe, 0x5EED0F16, 16)
}

// nameHash (FNV-1a) decorrelates the workloads' sequences under one seed.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
