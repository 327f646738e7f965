package wris

import (
	"fmt"
	"sort"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
)

// OPT lower-bound estimation. Every θ bound divides by an (unknown) optimal
// spread; following TIM's approach of estimating it from samples, we run a
// pilot round: generate PilotSets weighted RR sets, greedy-select k seeds,
// and read the spread off the unbiased estimator of Lemma 1
// (cover/θ_pilot · mass). The greedy seed set's spread is a valid lower
// bound on OPT, and substituting a lower bound only increases θ, so the
// (1−1/e−ε) guarantee is preserved (see DESIGN.md, Substitutions).

// KeywordSupport extracts the positive-mass support of keyword w as
// parallel (users, tf-weights) slices, the input to per-keyword root
// picking (ps(v,w), §4.1).
func KeywordSupport(prof *topic.Profiles, w int) ([]uint32, []float64) {
	entries := prof.Postings(w)
	if len(entries) == 0 {
		return nil, nil
	}
	users := make([]uint32, len(entries))
	weights := make([]float64, len(entries))
	for i, e := range entries {
		users[i] = e.User
		weights[i] = e.TF
	}
	return users, weights
}

// QuerySupport extracts the positive-score support of a whole query as
// parallel (users, φ(v,Q)-weights) slices, the input to WRIS root picking
// (ps(v,Q), Eqn 3).
func QuerySupport(prof *topic.Profiles, q topic.Query) ([]uint32, []float64) {
	scores := map[uint32]float64{}
	for _, w := range q.Topics {
		idf := prof.IDF(w)
		for _, e := range prof.Postings(w) {
			scores[e.User] += e.TF * idf
		}
	}
	if len(scores) == 0 {
		return nil, nil
	}
	users := make([]uint32, 0, len(scores))
	for u := range scores {
		users = append(users, u)
	}
	// Deterministic order.
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	weights := make([]float64, len(users))
	for i, u := range users {
		weights[i] = scores[u]
	}
	return users, weights
}

// estimateOPT runs the pilot: sample pilotSets RR sets with the given root
// picker, greedy-select k, and return cover/θ·mass. mass is Σ of the root
// weights' normalizer (TFSum(w) for a keyword pilot, φ_Q for a query pilot).
func estimateOPT(g *graph.Graph, model prop.Model, picker rrset.RootPicker, k, pilotSets int, mass float64, seed uint64, workers int) (float64, error) {
	batch := rrset.Generate(g, model, picker, rrset.GenerateOptions{
		Count:   pilotSets,
		Seed:    seed,
		Workers: workers,
	})
	res, err := solveBatch(g.NumVertices(), batch, k)
	if err != nil {
		return 0, err
	}
	est := float64(res.Covered) / float64(batch.Len()) * mass
	if est <= 0 {
		// Nothing covered (degenerate support): fall back to the smallest
		// useful value so θ formulas stay finite; callers cap θ anyway.
		est = mass / float64(pilotSets)
	}
	return est, nil
}

// EstimateOPTKeyword estimates OPT^{w}_k in tf units (Σ_v p(S→v)·tf_{w,v})
// for keyword w: the quantity in the denominators of Eqns 8 and 10.
func EstimateOPTKeyword(g *graph.Graph, model prop.Model, prof *topic.Profiles, w, k int, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if w < 0 || w >= prof.NumTopics() {
		return 0, fmt.Errorf("wris: keyword %d outside topic space [0,%d)", w, prof.NumTopics())
	}
	users, weights := KeywordSupport(prof, w)
	if len(users) == 0 {
		return 0, fmt.Errorf("wris: keyword %d has no support", w)
	}
	picker, err := rrset.NewWeightedRoots(users, weights)
	if err != nil {
		return 0, err
	}
	return estimateOPT(g, model, picker, k, cfg.PilotSets, prof.TFSum(w), cfg.Seed^uint64(w)<<20, cfg.Workers)
}

// EstimateOPTQuery estimates OPT^{Q.T}_{Q.k} in tf-idf units, the Theorem 2
// denominator.
func EstimateOPTQuery(g *graph.Graph, model prop.Model, prof *topic.Profiles, q topic.Query, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	users, weights := QuerySupport(prof, q)
	if len(users) == 0 {
		return 0, fmt.Errorf("wris: query %v has no targeted users", q.Topics)
	}
	picker, err := rrset.NewWeightedRoots(users, weights)
	if err != nil {
		return 0, err
	}
	return estimateOPT(g, model, picker, q.K, cfg.PilotSets, prof.PhiQ(q), cfg.Seed^0xD1F7, cfg.Workers)
}

// EstimateOPTUniform estimates OPT_k in vertex-count units for classic RIS
// (Theorem 1 denominator).
func EstimateOPTUniform(g *graph.Graph, model prop.Model, k int, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	n := g.NumVertices()
	if n == 0 {
		return 0, fmt.Errorf("wris: empty graph")
	}
	return estimateOPT(g, model, rrset.UniformRoots{N: n}, k, cfg.PilotSets, float64(n), cfg.Seed^0xBEEF, cfg.Workers)
}
