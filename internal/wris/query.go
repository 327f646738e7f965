package wris

import (
	"fmt"
	"time"

	"kbtim/internal/coverage"
	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
)

// Result reports one query-processing run. Every method in the repository
// (online WRIS/RIS here, the RR and IRR indexes elsewhere) reports through
// this type so the benchmark harness can compare them uniformly.
type Result struct {
	Seeds []uint32
	// EstSpread is the estimated expected influence of Seeds in the
	// objective's units: F_θ(S)/θ · mass (Lemma 1) — tf-idf units for
	// KB-TIM, vertex counts for classic RIS.
	EstSpread float64
	// Covered is F_θ(S), the number of RR sets the seeds cover.
	Covered int
	// NumRRSets is θ, the number of RR sets examined ("Number of RR sets
	// loaded" in Figures 5–7).
	NumRRSets int
	// ThetaCapped records whether the configured cap truncated θ,
	// invalidating the formal guarantee for this run.
	ThetaCapped bool
	// Elapsed is the wall-clock query time.
	Elapsed time.Duration
}

// Query answers a KB-TIM query with online weighted RIS sampling (§3.2):
//
//  1. estimate OPT^{Q.T}_{Q.k} with a pilot round,
//  2. draw θ (Theorem 2) root vertices with probability ps(v,Q) ∝ φ(v,Q)
//     and a random RR set for each,
//  3. greedy maximum coverage for Q.k seeds.
//
// This is the paper's accuracy-preserving baseline: correct but slow,
// because all sampling happens at query time.
func Query(g *graph.Graph, model prop.Model, prof *topic.Profiles, q topic.Query, cfg Config) (Result, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := q.Validate(prof.NumTopics()); err != nil {
		return Result{}, err
	}
	if q.K > cfg.K {
		return Result{}, fmt.Errorf("wris: Q.k=%d exceeds system cap K=%d", q.K, cfg.K)
	}
	users, weights := QuerySupport(prof, q)
	if len(users) == 0 {
		return Result{}, fmt.Errorf("wris: query %v has no targeted users", q.Topics)
	}
	picker, err := rrset.NewWeightedRoots(users, weights)
	if err != nil {
		return Result{}, err
	}
	opt, err := EstimateOPTQuery(g, model, prof, q, cfg)
	if err != nil {
		return Result{}, err
	}
	phiQ := prof.PhiQ(q)
	theta := ThetaWRIS(g.NumVertices(), q.K, cfg.Epsilon, phiQ, opt, cfg.MaxThetaPerKeyword)
	capped := cfg.MaxThetaPerKeyword > 0 && theta == cfg.MaxThetaPerKeyword

	batch := rrset.Generate(g, model, picker, rrset.GenerateOptions{
		Count:   theta,
		Seed:    cfg.Seed ^ 0x517EED,
		Workers: cfg.Workers,
	})
	res, err := solveBatch(g.NumVertices(), batch, q.K)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seeds:       res.Seeds,
		EstSpread:   float64(res.Covered) / float64(batch.Len()) * phiQ,
		Covered:     res.Covered,
		NumRRSets:   batch.Len(),
		ThetaCapped: capped,
		Elapsed:     time.Since(start),
	}, nil
}

// QueryRIS answers a classic (non-targeted) IM query with uniform RIS
// sampling — the state-of-the-art baseline the paper extends. It ignores
// profiles entirely, which is why Table 8 shows it returning the same seeds
// for every advertisement.
func QueryRIS(g *graph.Graph, model prop.Model, k int, cfg Config) (Result, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := g.NumVertices()
	if n == 0 {
		return Result{}, fmt.Errorf("wris: empty graph")
	}
	if k <= 0 || k > n {
		return Result{}, fmt.Errorf("wris: invalid k=%d", k)
	}
	opt, err := EstimateOPTUniform(g, model, k, cfg)
	if err != nil {
		return Result{}, err
	}
	theta := ThetaRIS(n, k, cfg.Epsilon, opt, cfg.MaxThetaPerKeyword)
	capped := cfg.MaxThetaPerKeyword > 0 && theta == cfg.MaxThetaPerKeyword
	batch := rrset.Generate(g, model, rrset.UniformRoots{N: n}, rrset.GenerateOptions{
		Count:   theta,
		Seed:    cfg.Seed ^ 0x715,
		Workers: cfg.Workers,
	})
	res, err := solveBatch(n, batch, k)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seeds:       res.Seeds,
		EstSpread:   float64(res.Covered) / float64(batch.Len()) * float64(n),
		Covered:     res.Covered,
		NumRRSets:   batch.Len(),
		ThetaCapped: capped,
		Elapsed:     time.Since(start),
	}, nil
}

// solveBatch is greedy over batch as one coverage part.
func solveBatch(numVertices int, batch *rrset.Batch, k int) (coverage.Result, error) {
	part, err := coverage.NewPart(numVertices, batch.Off, batch.Flat)
	if err != nil {
		return coverage.Result{}, err
	}
	defer part.Release()
	return coverage.SolveParts(numVertices, []coverage.Part{part}, k, coverage.SolveOptions{})
}
