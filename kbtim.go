// Package kbtim is a Go implementation of Keyword-Based Targeted Influence
// Maximization (KB-TIM) for online advertisements, reproducing
//
//	Yuchen Li, Dongxiang Zhang, Kian-Lee Tan.
//	"Real-time Targeted Influence Maximization for Online Advertisements."
//	PVLDB 8(10): 1070–1081, 2015.
//
// A KB-TIM query finds, for an advertisement described by a weighted
// keyword set, the k seed users maximizing the expected influence over the
// users relevant to that advertisement (the targeted spread
// E[I^Q(S)] = Σ_v p(S→v)·φ(v,Q), where φ is tf-idf relevance).
//
// Three query-processing strategies are provided, all carrying the paper's
// (1−1/e−ε) approximation guarantee:
//
//   - WRIS — online weighted reverse-influence-set sampling (Theorem 2).
//     Accurate but slow: every query pays the full sampling cost.
//   - RR index — per-keyword RR sets pre-sampled offline with
//     discriminative probabilities ps(v,w) and stored on disk; a query
//     merges θ^Q·p_w sets per keyword and runs greedy max coverage
//     (Algorithms 1–2).
//   - IRR index — the RR index reorganized for incremental access: inverted
//     lists sorted by influence and partitioned, consumed by an NRA-style
//     top-k aggregation that stops as soon as the next seed is provably
//     best (Algorithms 3–4; returns the same coverage scores as RR,
//     Theorem 3).
//
// The two disk-index strategies share one entry point, on an Engine and on a
// Sharded deployment alike: Query(ctx, strategy, q, opts), where opts adds
// streaming emission and an anytime deadline. QueryRR and QueryIRR are its
// ctx-less, option-less shorthands.
//
// # Quickstart
//
//	ds, _ := kbtim.GenerateDataset(kbtim.DatasetSpec{
//		Kind: kbtim.TwitterLike, NumUsers: 50000, AvgDegree: 10,
//		NumTopics: 64, Seed: 1,
//	})
//	eng, _ := kbtim.NewEngine(ds, kbtim.Options{Epsilon: 0.3, K: 50})
//	_ = eng.BuildIRRIndex("ads.irr")
//	_ = eng.OpenIRRIndex("ads.irr")
//	res, _ := eng.QueryIRR(kbtim.Query{Topics: []int{3, 17}, K: 10})
//	fmt.Println(res.Seeds, res.EstSpread)
//
// # Serving
//
// An Engine is safe for concurrent use: one shared Engine serves any
// number of goroutines, and Options.CacheBytes adds an in-memory segment
// cache in front of the index files for repeated-keyword traffic.
// cmd/kbtim-serve exposes an Engine over HTTP/JSON behind a bounded worker
// pool. For horizontal scale on one box, Sharded partitions the keyword
// universe across N engines with per-shard worker pools and cache budgets,
// returning results identical to a single engine (see DESIGN.md §6.1).
//
// See examples/ for runnable programs and DESIGN.md for the full mapping
// between the paper and this repository, the index file formats, and the
// concurrency + cache architecture.
package kbtim

import (
	"fmt"
	"strings"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
)

// Query is a KB-TIM query: the advertisement's keyword set Q.T (topic IDs)
// and the seed budget Q.k.
type Query struct {
	// Topics is the advertisement keyword set Q.T (distinct topic IDs).
	Topics []int
	// K is Q.k, the number of seed users to select.
	K int
}

func (q Query) internal() topic.Query { return topic.Query{Topics: q.Topics, K: q.K} }

// Strategy selects which disk index answers a query. The two are
// interchangeable by Theorem 3 — same seeds, same marginals, same spread —
// and differ only in access pattern, so the strategy is an argument of the
// one Query entry point rather than a method name.
type Strategy string

// The disk-index strategies. The string values are the ones the /query wire
// field, the cross-node fetch protocol and BuildShardIndexes use.
const (
	// StrategyRR is Algorithm 2: load every query keyword's RR-set prefix,
	// invert it, then run greedy maximum coverage.
	StrategyRR Strategy = "rr"
	// StrategyIRR is Algorithm 4: NRA top-k aggregation over the partitioned
	// inverted lists, stopping as soon as the next seed is provably best.
	StrategyIRR Strategy = "irr"
)

// upper spells the strategy the way identifiers and messages do ("RR").
func (s Strategy) upper() string { return strings.ToUpper(string(s)) }

// Model selects the influence-propagation model.
type Model string

// Supported propagation models.
const (
	// IC is the independent cascade model with p(e)=1/N_v (§2.1).
	IC Model = "IC"
	// LT is the linear threshold model with uniform normalized weights.
	LT Model = "LT"
)

func (m Model) internal() (prop.Model, error) {
	switch m {
	case IC, "":
		return prop.IC{}, nil
	case LT:
		return prop.LT{}, nil
	default:
		return nil, fmt.Errorf("kbtim: unknown model %q", string(m))
	}
}

// Seed is a selected seed user.
type Seed = uint32

// Edge is a directed "From influences To" edge, re-exported for graph
// construction.
type Edge = graph.Edge
