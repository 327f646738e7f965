// Package shardmap assigns a keyword universe to N engine shards. It is the
// single source of truth for "which shard owns keyword w": kbtim-build uses
// it to decide which topics go into each per-shard index file, and the
// kbtim-serve router uses the SAME mapping to fan a query's topic set out to
// the engines that can answer it. Both sides must agree, so every mode is a
// pure function of (keyword ID, shard count) with no per-process state.
//
// Two modes are provided; both partition the universe disjointly:
//
//   - Hash: keyword → shard by a fixed 64-bit mix of the topic ID. Spreads
//     hot keywords independently of ID locality; the default.
//   - Range: contiguous topic-ID blocks of the topic space. Keeps adjacent
//     IDs together (useful when topic IDs encode category locality) at the
//     price of skew when popularity correlates with ID.
//
// Replication is not a mode: the router serves one shard from several
// interchangeable backends (a replica group, -backends 'h1|h2').
package shardmap

import (
	"fmt"
	"sort"
)

// Mode selects the keyword→shard assignment strategy.
type Mode int

// Assignment modes.
const (
	Hash Mode = iota
	Range
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Hash:
		return "hash"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses the -shard-mode flag spelling.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	default:
		return 0, fmt.Errorf("shardmap: unknown mode %q (want hash or range)", s)
	}
}

// Map is an immutable assignment of a topic space to NumShards shards.
type Map struct {
	n         int
	mode      Mode
	numTopics int
}

// New builds a map over a topic space of numTopics IDs ([0, numTopics)).
// numTopics only matters for Range (it sets the block boundaries) but is
// validated for every mode so misconfiguration fails at construction.
func New(n int, mode Mode, numTopics int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shardmap: shard count must be >= 1, got %d", n)
	}
	switch mode {
	case Hash, Range:
	default:
		return nil, fmt.Errorf("shardmap: invalid mode %d", int(mode))
	}
	if numTopics < 1 {
		return nil, fmt.Errorf("shardmap: topic space must be >= 1, got %d", numTopics)
	}
	if mode == Range && n > numTopics {
		return nil, fmt.Errorf("shardmap: %d range shards over %d topics leaves empty shards", n, numTopics)
	}
	return &Map{n: n, mode: mode, numTopics: numTopics}, nil
}

// NumShards returns N.
func (m *Map) NumShards() int { return m.n }

// Mode returns the assignment strategy.
func (m *Map) Mode() Mode { return m.mode }

// NumTopics returns the topic-space size the map was built over.
func (m *Map) NumTopics() int { return m.numTopics }

// mix64 is the splitmix64 finalizer: a cheap, well-distributed, stable
// integer hash. Stability matters — the build-time partition and the
// serve-time router may run in different processes (or releases) and must
// land every keyword on the same shard.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Owner returns the shard owning topic w.
func (m *Map) Owner(w int) int {
	if w < 0 || w >= m.numTopics {
		// Out-of-space keywords are routed (not rejected) so the owning
		// engine reports the same "outside topic space" error a single
		// engine would; shard 0 is as good a reporter as any.
		return 0
	}
	switch m.mode {
	case Range:
		// Proportional blocks: shard i owns IDs [i*T/n, (i+1)*T/n).
		return w * m.n / m.numTopics
	default: // Hash
		return int(mix64(uint64(w)) % uint64(m.n))
	}
}

// Affinity returns the preferred replica (in [0, replicas)) for reads of
// topic w when a shard is served by `replicas` interchangeable copies. It is
// a pure function of the topic ID, mixed with a different constant than
// Owner so the replica choice is independent of the shard assignment: hot
// keywords spread across a replica set instead of all landing on replica 0,
// while each keyword keeps hitting the same replica (and therefore the same
// backend caches) run after run. Callers treat it as a starting preference
// and rotate away from it on failure.
func Affinity(w, replicas int) int {
	if replicas <= 1 {
		return 0
	}
	if w < 0 {
		w = -w
	}
	// A second splitmix64 round over an offset ID decorrelates the replica
	// pick from Owner's shard pick (same mix of the same ID would make
	// replica choice a function of shard choice).
	return int(mix64(uint64(w)+0x9E3779B97F4A7C15) % uint64(replicas))
}

// Shards returns the distinct shards owning any of the given topics, in
// ascending order.
func (m *Map) Shards(topics []int) []int {
	if len(topics) == 0 {
		return nil
	}
	seen := make(map[int]bool, m.n)
	out := make([]int, 0, len(topics))
	for _, w := range topics {
		s := m.Owner(w)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Partition splits a concrete keyword universe (the topics an unsharded
// build would index) into per-shard topic lists: result[i] is shard i's
// build set, each list preserving the input order. The lists are disjoint.
func (m *Map) Partition(topics []int) [][]int {
	out := make([][]int, m.n)
	for _, w := range topics {
		s := m.Owner(w)
		out[s] = append(out[s], w)
	}
	return out
}
