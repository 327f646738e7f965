package rrset

import (
	"runtime"
	"sync"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
)

// Batch is a collection of RR sets stored in one flat arena: set i occupies
// Flat[Off[i]:Off[i+1]]. Flat storage keeps hundreds of thousands of sets
// allocation- and GC-friendly, and it is the exact shape the disk index
// serializes. Decoded batches are published through internal/objcache and
// shared read-only between queries: a Batch is immutable once published to
// the decoded cache.
type Batch struct {
	Off  []int64
	Flat []uint32
}

// Len returns the number of RR sets in the batch.
func (b *Batch) Len() int { return len(b.Off) - 1 }

// Set returns RR set i (sorted ascending, aliases internal storage).
func (b *Batch) Set(i int) []uint32 { return b.Flat[b.Off[i]:b.Off[i+1]] }

// TotalSize returns the summed cardinality of all sets.
func (b *Batch) TotalSize() int64 { return int64(len(b.Flat)) }

// MeanSize returns the average RR-set cardinality (the "Mean RR set size"
// column of Table 5).
func (b *Batch) MeanSize() float64 {
	if b.Len() == 0 {
		return 0
	}
	return float64(b.TotalSize()) / float64(b.Len())
}

// Append adds one RR set (already sorted) to the batch.
func (b *Batch) Append(set []uint32) {
	if len(b.Off) == 0 {
		b.Off = append(b.Off, 0)
	}
	b.Flat = append(b.Flat, set...)
	b.Off = append(b.Off, int64(len(b.Flat)))
}

// GenerateOptions configures batch generation.
type GenerateOptions struct {
	Count   int    // number of RR sets
	Seed    uint64 // base seed; the result is a deterministic function of it
	Workers int    // 0 = GOMAXPROCS
}

// Generate samples opts.Count RR sets concurrently. The output is
// deterministic for a fixed (graph, model, picker, Count, Seed, Workers):
// set i is produced by worker i%Workers from a per-worker child seed, and
// sets are reassembled in index order. Index construction for the paper's
// experiments runs with 8 threads (§6.2); this is the equivalent machinery.
func Generate(g *graph.Graph, model prop.Model, picker RootPicker, opts GenerateOptions) *Batch {
	if opts.Count <= 0 {
		return &Batch{Off: []int64{0}}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Count {
		workers = opts.Count
	}

	type shard struct {
		off  []int64 // local offsets, starting at 0
		flat []uint32
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(opts.Seed ^ (0x9E3779B97F4A7C15 * uint64(w+1)))
			sampler := NewSampler(g, model)
			local := shard{off: []int64{0}}
			for i := w; i < opts.Count; i += workers {
				root := picker.PickRoot(src)
				local.flat = sampler.AppendRR(local.flat, root, src)
				local.off = append(local.off, int64(len(local.flat)))
			}
			shards[w] = local
		}(w)
	}
	wg.Wait()

	// Reassemble in global index order i = 0,1,2,...: set i is the
	// (i/workers)-th set of shard i%workers.
	out := &Batch{Off: make([]int64, 1, opts.Count+1)}
	total := 0
	for _, s := range shards {
		total += len(s.flat)
	}
	out.Flat = make([]uint32, 0, total)
	for i := 0; i < opts.Count; i++ {
		s := &shards[i%workers]
		j := i / workers
		out.Flat = append(out.Flat, s.flat[s.off[j]:s.off[j+1]]...)
		out.Off = append(out.Off, int64(len(out.Flat)))
	}
	return out
}

// InvertedLists builds the vertex → RR-set-IDs inverse mapping L of
// Algorithm 1 (line 5): lists[v] holds the ascending IDs of the sets
// containing v. Vertices in no set have nil entries.
func (b *Batch) InvertedLists(numVertices int) [][]int32 {
	lists := make([][]int32, numVertices)
	counts := make([]int32, numVertices)
	for _, v := range b.Flat {
		counts[v]++
	}
	for v, c := range counts {
		if c > 0 {
			lists[v] = make([]int32, 0, c)
		}
	}
	for i := 0; i < b.Len(); i++ {
		for _, v := range b.Set(i) {
			lists[v] = append(lists[v], int32(i))
		}
	}
	return lists
}
