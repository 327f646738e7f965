// Package prop implements the influence-propagation substrate of §2.1: the
// independent cascade (IC) model, the linear threshold (LT) model, and the
// general triggering abstraction both specialize; forward Monte-Carlo spread
// estimation; and exact spread oracles by world enumeration for tiny graphs
// (used to validate every sampler in the repository against ground truth).
//
// Everything is expressed through the live-edge (triggering-set) view of
// Kempe et al.: each vertex v independently samples a trigger set
// T(v) ⊆ InNeighbors(v); the live-edge graph keeps edge (u,v) iff u ∈ T(v);
// and I(S) is the set of vertices forward-reachable from S along live edges.
//
//   - IC:  u ∈ T(v) independently with probability p(u,v) = 1/N_v (§2.1).
//   - LT:  T(v) is exactly one in-neighbor chosen with probability b(u,v);
//     with the paper's normalization (random weights summing to 1) the
//     reverse sampler consumes the same one-pick distribution.
//
// Reverse-reachable sets (internal/rrset) are reverse reachability in the
// same live-edge graph, so the two packages share the Model interface.
package prop

import (
	"kbtim/internal/graph"
	"kbtim/internal/rng"
)

// Model is a triggering-model distribution: for each vertex it can sample a
// trigger set (a subset of the vertex's in-neighbors). Implementations must
// be stateless and safe for concurrent use; all randomness flows through the
// supplied Source.
type Model interface {
	// Name identifies the model in reports ("IC", "LT").
	Name() string
	// AppendTrigger appends one fresh sample of T(v) to dst and returns the
	// extended slice.
	AppendTrigger(dst []uint32, g *graph.Graph, v uint32, src *rng.Source) []uint32
	// TriggerProb returns the probability that u is a member of T(v),
	// i.e. the live-edge probability of (u,v). Used by exact oracles and
	// tests; u must be an in-neighbor of v for a meaningful answer.
	TriggerProb(g *graph.Graph, u, v uint32) float64
}

// IC is the independent cascade model with the paper's default weighting
// p(e) = 1/N_v. The zero value is ready to use.
type IC struct{}

// Name implements Model.
func (IC) Name() string { return "IC" }

// AppendTrigger implements Model: each in-neighbor joins T(v) independently
// with probability 1/InDegree(v). It makes one Bernoulli(1/InDegree(v))
// coin per in-neighbor, in adjacency order, so in-degree 1 draws nothing
// (the one neighbor always joins); the coins run through rng's integer
// kernel, which makes the same draws and decisions as Bernoulli.
func (IC) AppendTrigger(dst []uint32, g *graph.Graph, v uint32, src *rng.Source) []uint32 {
	in := g.InNeighbors(v)
	switch len(in) {
	case 0:
		return dst
	case 1:
		return append(dst, in[0])
	}
	return src.AppendHits(dst, in, rng.Threshold(1/float64(len(in))))
}

// TriggerProb implements Model.
func (IC) TriggerProb(g *graph.Graph, u, v uint32) float64 {
	if !g.HasEdge(u, v) {
		return 0
	}
	return g.ICProb(v)
}

// LT is the linear threshold model with uniform normalized in-weights
// b(u,v) = 1/N_v (the paper draws random weights and normalizes them; the
// uniform special case keeps exact oracles tractable and is the common
// benchmark setting). Its live-edge form picks exactly one in-neighbor
// uniformly at random.
type LT struct{}

// Name implements Model.
func (LT) Name() string { return "LT" }

// AppendTrigger implements Model: exactly one uniformly random in-neighbor.
func (LT) AppendTrigger(dst []uint32, g *graph.Graph, v uint32, src *rng.Source) []uint32 {
	in := g.InNeighbors(v)
	if len(in) == 0 {
		return dst
	}
	return append(dst, in[src.Intn(len(in))])
}

// TriggerProb implements Model.
func (LT) TriggerProb(g *graph.Graph, u, v uint32) float64 {
	if !g.HasEdge(u, v) {
		return 0
	}
	// Parallel edges give u proportionally more weight; count multiplicity.
	count := 0
	for _, w := range g.InNeighbors(v) {
		if w == u {
			count++
		}
	}
	return float64(count) / float64(g.InDegree(v))
}

// WeightedIC is an IC variant with caller-supplied per-target probability:
// every edge into v carries probability P(v). It generalizes the 1/N_v
// default (ablation: sensitivity of index size to propagation probability).
type WeightedIC struct {
	// P returns the activation probability of edges into v.
	P func(g *graph.Graph, v uint32) float64
}

// Name implements Model.
func (WeightedIC) Name() string { return "WIC" }

// AppendTrigger implements Model: one Bernoulli(P(v)) coin per in-neighbor,
// in adjacency order, through the same kernel as IC. P(v) ≤ 0 and P(v) ≥ 1
// draw nothing; a NaN P(v) draws once per in-neighbor and keeps none.
func (m WeightedIC) AppendTrigger(dst []uint32, g *graph.Graph, v uint32, src *rng.Source) []uint32 {
	in := g.InNeighbors(v)
	if len(in) == 0 {
		return dst
	}
	return src.AppendHits(dst, in, rng.Threshold(m.P(g, v)))
}

// TriggerProb implements Model.
func (m WeightedIC) TriggerProb(g *graph.Graph, u, v uint32) float64 {
	if !g.HasEdge(u, v) {
		return 0
	}
	return m.P(g, v)
}
