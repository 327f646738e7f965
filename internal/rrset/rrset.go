// Package rrset implements reverse-reachable (RR) set sampling, the engine
// behind RIS, WRIS, and both disk indexes (Definition 2 and §3.2 of the
// paper). A random RR set is generated by (1) picking a root vertex v —
// uniformly for classic RIS, proportionally to φ(v,Q) for WRIS, or
// proportionally to tf_{w,v} for per-keyword discriminative sampling — and
// (2) collecting every vertex that reaches v in a random live-edge world.
//
// Step (2) never materializes the world: reverse BFS samples each visited
// vertex's trigger set on first touch, which is equivalent because every
// vertex is expanded at most once (the deferred-decision principle of
// Borgs et al.).
package rrset

import (
	"fmt"
	"slices"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
)

// Sampler generates RR sets for one graph/model pair. It owns scratch
// buffers and is NOT safe for concurrent use; create one per goroutine
// (they are cheap: two int32 slices of |V|).
type Sampler struct {
	g     *graph.Graph
	model prop.Model

	visited []int32
	epoch   int32
	queue   []uint32
	trig    []uint32
}

// NewSampler creates a sampler over g under the given propagation model.
func NewSampler(g *graph.Graph, model prop.Model) *Sampler {
	return &Sampler{
		g:       g,
		model:   model,
		visited: make([]int32, g.NumVertices()),
		epoch:   0,
	}
}

// AppendRR appends the members of one fresh RR set rooted at root to dst
// and returns the extended slice. The appended region is sorted ascending
// and always contains root.
func (s *Sampler) AppendRR(dst []uint32, root uint32, src *rng.Source) []uint32 {
	s.epoch++
	if s.epoch == 0 { // wrapped; reset the scratch array
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	start := len(dst)
	s.visited[root] = s.epoch
	s.queue = append(s.queue[:0], root)
	dst = append(dst, root)
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.trig = s.model.AppendTrigger(s.trig[:0], s.g, v, src)
		for _, u := range s.trig {
			if s.visited[u] == s.epoch {
				continue
			}
			s.visited[u] = s.epoch
			s.queue = append(s.queue, u)
			dst = append(dst, u)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// RR returns one fresh RR set rooted at root.
func (s *Sampler) RR(root uint32, src *rng.Source) []uint32 {
	return s.AppendRR(nil, root, src)
}

// RootPicker selects RR-set roots. Implementations must be safe for
// concurrent use (all state flows through the Source).
type RootPicker interface {
	// PickRoot returns the next root vertex.
	PickRoot(src *rng.Source) uint32
}

// UniformRoots picks roots uniformly from [0, N) — classic RIS.
type UniformRoots struct{ N int }

// PickRoot implements RootPicker.
func (u UniformRoots) PickRoot(src *rng.Source) uint32 {
	return uint32(src.Intn(u.N))
}

// WeightedRoots picks roots from an explicit support with probability
// proportional to the supplied weights — ps(v,Q) for WRIS (Eqn 3) or
// ps(v,w) for per-keyword discriminative sampling (§4.1).
type WeightedRoots struct {
	users []uint32
	alias *rng.Alias
}

// NewWeightedRoots builds a weighted picker over the given support.
// users[i] is drawn with probability weights[i]/Σweights.
func NewWeightedRoots(users []uint32, weights []float64) (*WeightedRoots, error) {
	if len(users) != len(weights) {
		return nil, fmt.Errorf("rrset: %d users but %d weights", len(users), len(weights))
	}
	alias, err := rng.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("rrset: %w", err)
	}
	return &WeightedRoots{users: users, alias: alias}, nil
}

// PickRoot implements RootPicker.
func (w *WeightedRoots) PickRoot(src *rng.Source) uint32 {
	return w.users[w.alias.Sample(src)]
}
