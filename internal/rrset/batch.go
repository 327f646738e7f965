package rrset

import (
	"runtime"
	"sync"
	"sync/atomic"

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
	Workers int    // 0 = GOMAXPROCS; sets speed only, never the result
}

// chunk is how many consecutive sets a worker claims at a time: enough to
// amortize the shared counter, few enough that workers finish together when
// set sizes are heavy-tailed.
const chunk = 256

// setSeed is the seed of set i under the base seed. i is mixed before it
// meets seed, so no structure among base seeds (wris.SampleKeyword's are
// cfg.Seed XOR a golden multiple) can line up with a set index; the result is
// mixed again because Source.Seed walks splitmix by adding its increment, and
// seeds a small multiple of it apart would share state words.
func setSeed(seed uint64, i int) uint64 { return rng.Mix64(seed ^ rng.Mix64(uint64(i))) }

// Generate samples opts.Count RR sets concurrently. Set i is drawn from its
// own stream, seeded by setSeed(opts.Seed, i), so the batch is a pure
// function of (graph, model, picker, Count, Seed): Workers only sets how fast
// it is built, and Generate(n) is a prefix of Generate(m) for n < m. Workers
// claim chunks of consecutive sets from a shared counter, and the chunks are
// joined in index order. Index construction for the paper's experiments runs
// with 8 threads (§6.2); this is the equivalent machinery.
func Generate(g *graph.Graph, model prop.Model, picker RootPicker, opts GenerateOptions) *Batch {
	if opts.Count <= 0 {
		return &Batch{Off: []int64{0}}
	}
	parts := make([]Batch, (opts.Count+chunk-1)/chunk) // local offsets from 0
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(parts))

	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var src rng.Source
			sampler := NewSampler(g, model)
			for c := int(next.Add(1)) - 1; c < len(parts); c = int(next.Add(1)) - 1 {
				lo, hi := c*chunk, min((c+1)*chunk, opts.Count)
				p := Batch{Off: make([]int64, 1, hi-lo+1)}
				for i := lo; i < hi; i++ {
					src.Seed(setSeed(opts.Seed, i))
					p.Flat = sampler.AppendRR(p.Flat, picker.PickRoot(&src), &src)
					p.Off = append(p.Off, int64(len(p.Flat)))
				}
				parts[c] = p
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, p := range parts {
		total += len(p.Flat)
	}
	out := &Batch{Off: make([]int64, 1, opts.Count+1), Flat: make([]uint32, 0, total)}
	for _, p := range parts {
		base := int64(len(out.Flat))
		for _, o := range p.Off[1:] {
			out.Off = append(out.Off, base+o)
		}
		out.Flat = append(out.Flat, p.Flat...)
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
