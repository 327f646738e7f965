// Package bench is the experiment harness behind §6 of the paper: it
// generates the scaled dataset suite, builds and caches the disk indexes,
// runs every table and figure of the evaluation, and renders them as text
// tables. bench_test.go at the module root exposes one testing.B benchmark
// per experiment; cmd/kbtim-bench drives the same code from the command
// line.
//
// Scaling: the paper's corpora (Twitter up to 41.6M users / 1.4B edges,
// News up to 1.4M vertices) are scaled ~1:1000 and ε is raised from 0.1 to
// 0.4 (θ ∝ 1/ε²) so the whole suite runs on a laptop in minutes. The
// comparative shapes — which method wins, by how much, and where IRR
// degrades to RR — are preserved; see EXPERIMENTS.md for the side-by-side
// reading.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/graph"
	"kbtim/internal/indexfile"
	"kbtim/internal/irrindex"
	"kbtim/internal/prop"
	"kbtim/internal/rrindex"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Family names the two dataset families of Table 2.
type Family string

// Dataset families.
const (
	News    Family = "news"
	Twitter Family = "twitter"
)

// Config sizes the experiment suite.
type Config struct {
	// Full switches from the quick default sweep to the paper's complete
	// parameter grid (set KBTIM_BENCH_FULL=1).
	Full bool
	// Topics is the topic-space size (paper: 200).
	Topics int
	// Epsilon for every method (paper: 0.1).
	Epsilon float64
	// K is the index sizing cap on Q.k (paper: 100, max Q.k 50).
	K int
	// MaxTheta caps per-keyword samples so runaway configurations stay
	// bounded.
	MaxTheta int
	// PartitionSize is the IRR δ (paper: 100).
	PartitionSize int
	// NewsSizes / TwitterSizes are the |V| sweeps of Table 2.
	NewsSizes    []int
	TwitterSizes []int
	// NewsDegrees / TwitterDegrees are the matching average degrees
	// (both decrease with size, as in Table 2).
	NewsDegrees    []float64
	TwitterDegrees []float64
	// DefaultNews / DefaultTwitter index into the size sweeps (the bolded
	// defaults of Table 2).
	DefaultNews    int
	DefaultTwitter int
	// KSweep is the Q.k sweep of Figure 5 (paper: 10..50 step 5).
	KSweep []int
	// LenSweep is the |Q.T| sweep of Figure 6 (paper: 1..6).
	LenSweep []int
	// DefaultK and DefaultLen are the fixed values when the other
	// parameter sweeps (paper: 30 and 5).
	DefaultK   int
	DefaultLen int
	// QueriesPerPoint averages each measurement over this many queries
	// (paper: 100 per length; scaled down here).
	QueriesPerPoint int
	// SpreadRounds is the Monte-Carlo budget of Table 7.
	SpreadRounds int
	// Seed drives everything.
	Seed uint64
}

// DefaultConfig returns the quick (full=false) or complete (full=true)
// suite configuration.
func DefaultConfig(full bool) Config {
	cfg := Config{
		Full:            full,
		Topics:          16,
		Epsilon:         0.4,
		K:               50,
		MaxTheta:        120000,
		PartitionSize:   20, // paper: 100 at 10^7 users; scaled with |V|
		NewsSizes:       []int{2000, 6000, 10000, 14000},
		NewsDegrees:     []float64{5.2, 3.1, 2.6, 2.2},
		TwitterSizes:    []int{4000, 8000, 12000, 16000},
		TwitterDegrees:  []float64{19, 14, 12, 10},
		DefaultNews:     2,
		DefaultTwitter:  1,
		KSweep:          []int{10, 30, 50},
		LenSweep:        []int{1, 3, 5},
		DefaultK:        30,
		DefaultLen:      5,
		QueriesPerPoint: 3,
		SpreadRounds:    800,
		Seed:            1,
	}
	if full {
		cfg.Topics = 32
		cfg.KSweep = []int{10, 15, 20, 25, 30, 35, 40, 45, 50}
		cfg.LenSweep = []int{1, 2, 3, 4, 5, 6}
		cfg.QueriesPerPoint = 10
		cfg.SpreadRounds = 2000
		cfg.MaxTheta = 300000
	}
	return cfg
}

// dataset is one generated graph + profiles pair.
type dataset struct {
	g    *graph.Graph
	prof *topic.Profiles
}

// indexKey identifies a cached index build.
type indexKey struct {
	family  Family
	size    int
	kind    string // "rr" | "irr"
	sizing  wris.SizingMode
	comp    codec.Compression
	modelNm string
	delta   int
}

// indexEntry is a cached, opened index.
type indexEntry struct {
	bytes    int64
	sumTheta int64
	meanRR   float64
	buildSec float64
	rr       *rrindex.Index
	irr      *irrindex.Index
	file     *diskio.File
}

// Env lazily generates datasets and builds indexes, caching both so that
// experiments sharing a configuration do not pay twice.
type Env struct {
	Cfg Config

	mu       sync.Mutex
	dir      string
	datasets map[string]*dataset
	indexes  map[indexKey]*indexEntry
}

// NewEnv creates an environment whose index files live in a fresh temp dir.
func NewEnv(cfg Config) (*Env, error) {
	dir, err := os.MkdirTemp("", "kbtim-bench-")
	if err != nil {
		return nil, err
	}
	return &Env{
		Cfg:      cfg,
		dir:      dir,
		datasets: map[string]*dataset{},
		indexes:  map[indexKey]*indexEntry{},
	}, nil
}

// Close removes all cached index files.
func (e *Env) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.indexes {
		if ent.file != nil {
			ent.file.Close()
		}
	}
	e.indexes = map[indexKey]*indexEntry{}
	return os.RemoveAll(e.dir)
}

// wrisConfig returns the sampling configuration used by index BUILDS
// (parallel workers, like the paper's 8-thread construction).
func (e *Env) wrisConfig() wris.Config {
	return wris.Config{
		Epsilon:            e.Cfg.Epsilon,
		K:                  e.Cfg.K,
		PilotSets:          1500,
		MaxThetaPerKeyword: e.Cfg.MaxTheta,
		Seed:               e.Cfg.Seed,
	}
}

// queryCfg returns the configuration for ONLINE query-time methods: a
// single worker, so the WRIS-vs-index latency comparison is apples to
// apples (index query processing is single-threaded), and a far looser θ
// cap — the paper's WRIS has no cap at all, and capping it would hide the
// very cost the indexes exist to avoid (θ for WRIS is sized by OPT_{Q.k}
// of the live query, while the indexes are sized once by OPT_K).
func (e *Env) queryCfg() wris.Config {
	cfg := e.wrisConfig()
	cfg.Workers = 1
	cfg.MaxThetaPerKeyword = 5_000_000
	return cfg
}

// sizes returns the |V| sweep of a family.
func (e *Env) sizes(f Family) []int {
	if f == News {
		return e.Cfg.NewsSizes
	}
	return e.Cfg.TwitterSizes
}

// defaultSize returns the family's bolded Table 2 default.
func (e *Env) defaultSize(f Family) int {
	if f == News {
		return e.Cfg.NewsSizes[e.Cfg.DefaultNews]
	}
	return e.Cfg.TwitterSizes[e.Cfg.DefaultTwitter]
}

// Dataset returns the (cached) graph + profiles for a family/size.
func (e *Env) Dataset(f Family, size int) (*graph.Graph, *topic.Profiles, error) {
	key := fmt.Sprintf("%s-%d", f, size)
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.datasets[key]; ok {
		return d.g, d.prof, nil
	}
	deg, err := e.degreeFor(f, size)
	if err != nil {
		return nil, nil, err
	}
	var g *graph.Graph
	switch f {
	case News:
		g, err = gen.NewsLike(gen.NewsLikeConfig{N: size, AvgDegree: deg, Seed: e.Cfg.Seed + uint64(size)})
	case Twitter:
		g, err = gen.TwitterLike(gen.TwitterLikeConfig{N: size, AvgDegree: int(deg), Seed: e.Cfg.Seed + uint64(size)})
	default:
		return nil, nil, fmt.Errorf("bench: unknown family %q", f)
	}
	if err != nil {
		return nil, nil, err
	}
	pcfg := gen.DefaultProfilesConfig(size, e.Cfg.Topics, e.Cfg.Seed+uint64(size)*3)
	if pcfg.MaxTopics > e.Cfg.Topics {
		pcfg.MaxTopics = e.Cfg.Topics
	}
	prof, err := gen.Profiles(pcfg)
	if err != nil {
		return nil, nil, err
	}
	e.datasets[key] = &dataset{g: g, prof: prof}
	return g, prof, nil
}

func (e *Env) degreeFor(f Family, size int) (float64, error) {
	sizes := e.sizes(f)
	degrees := e.Cfg.NewsDegrees
	if f == Twitter {
		degrees = e.Cfg.TwitterDegrees
	}
	for i, s := range sizes {
		if s == size {
			return degrees[i], nil
		}
	}
	return 0, fmt.Errorf("bench: size %d not in %s sweep", size, f)
}

// Queries returns a deterministic workload of n queries with the given
// keyword count and k.
func (e *Env) Queries(n, length, k int) ([]topic.Query, error) {
	batch, err := gen.Queries(gen.QueryWorkloadConfig{
		NumTopics:    e.Cfg.Topics,
		Lengths:      []int{length},
		PerLength:    n,
		K:            k,
		ZipfExponent: 1.0,
		Seed:         e.Cfg.Seed + uint64(length)*977 + uint64(k),
	})
	if err != nil {
		return nil, err
	}
	return batch[length], nil
}

// RRIndex builds (or fetches) an RR index.
func (e *Env) RRIndex(f Family, size int, sizing wris.SizingMode, comp codec.Compression) (*rrindex.Index, *indexEntry, error) {
	ent, err := e.index(indexKey{family: f, size: size, kind: "rr", sizing: sizing, comp: comp, modelNm: "IC", delta: 0})
	if err != nil {
		return nil, nil, err
	}
	return ent.rr, ent, nil
}

// IRRIndex builds (or fetches) an IRR index.
func (e *Env) IRRIndex(f Family, size int, sizing wris.SizingMode, comp codec.Compression, delta int) (*irrindex.Index, *indexEntry, error) {
	if delta == 0 {
		delta = e.Cfg.PartitionSize
	}
	ent, err := e.index(indexKey{family: f, size: size, kind: "irr", sizing: sizing, comp: comp, modelNm: "IC", delta: delta})
	if err != nil {
		return nil, nil, err
	}
	return ent.irr, ent, nil
}

func (e *Env) index(key indexKey) (*indexEntry, error) {
	e.mu.Lock()
	if ent, ok := e.indexes[key]; ok {
		e.mu.Unlock()
		return ent, nil
	}
	e.mu.Unlock()

	g, prof, err := e.Dataset(key.family, key.size)
	if err != nil {
		return nil, err
	}
	cfg := e.wrisConfig()
	path := filepath.Join(e.dir, fmt.Sprintf("%s-%d-%s-%d-%d-%d.idx",
		key.family, key.size, key.kind, key.sizing, key.comp, key.delta))
	fo, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	opts := indexfile.BuildOptions{Compression: key.comp, Sizing: key.sizing}
	build := func(w io.Writer) (*indexfile.BuildStats, error) {
		return rrindex.Build(w, g, prop.IC{}, prof, cfg, opts)
	}
	if key.kind == "irr" {
		build = func(w io.Writer) (*indexfile.BuildStats, error) {
			return irrindex.Build(w, g, prop.IC{}, prof, cfg, irrindex.BuildOptions{BuildOptions: opts, PartitionSize: key.delta})
		}
	}
	stats, err := build(fo)
	if err != nil {
		fo.Close()
		return nil, err
	}
	ent := &indexEntry{
		bytes:    stats.TotalBytes,
		sumTheta: stats.SumTheta(),
		meanRR:   stats.MeanRRSize(),
		buildSec: stats.Elapsed.Seconds(),
	}
	if err := fo.Close(); err != nil {
		return nil, err
	}
	df, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		return nil, err
	}
	switch key.kind {
	case "rr":
		ent.rr, err = rrindex.Open(df)
	case "irr":
		ent.irr, err = irrindex.Open(df)
	}
	if err != nil {
		df.Close()
		return nil, err
	}
	ent.file = df

	e.mu.Lock()
	e.indexes[key] = ent
	e.mu.Unlock()
	return ent, nil
}
