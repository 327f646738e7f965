package coverage

import (
	"reflect"
	"testing"
	"time"

	"kbtim/internal/rng"
)

// TestSolveOptsEmitMatchesBatch: the emitted (seed, marginal) sequence,
// concatenated, is exactly the batch result — the sink observes the same
// greedy trace the Result records.
func TestSolveOptsEmitMatchesBatch(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		n := src.Intn(20) + 3
		numSets := src.Intn(40) + 1
		sets := make([][]uint32, numSets)
		for i := range sets {
			size := src.Intn(4) + 1
			seen := map[uint32]bool{}
			for len(sets[i]) < size {
				v := uint32(src.Intn(n))
				if !seen[v] {
					seen[v] = true
					sets[i] = append(sets[i], v)
				}
			}
			sortSlice(sets[i])
		}
		in, members := instanceFromSets(n, sets)
		k := src.Intn(5) + 1

		batch, err := Solve(in, k, members)
		if err != nil {
			t.Fatal(err)
		}
		for name, solve := range map[string]func(*Instance, int, func(setID int32) []uint32, SolveOptions) (Result, error){
			"SolveOpts": SolveOpts,
		} {
			var seeds []uint32
			var marginals []int
			res, err := solve(in, k, members, SolveOptions{
				Emit: func(seed uint32, marginal int) {
					seeds = append(seeds, seed)
					marginals = append(marginals, marginal)
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Partial {
				t.Fatalf("%s: partial without a deadline", name)
			}
			if !reflect.DeepEqual(seeds, res.Seeds) || !reflect.DeepEqual(marginals, res.Marginal) {
				t.Fatalf("%s trial %d: emitted (%v,%v) != result (%v,%v)",
					name, trial, seeds, marginals, res.Seeds, res.Marginal)
			}
			if !reflect.DeepEqual(res.Seeds, batch.Seeds) || res.Covered != batch.Covered {
				t.Fatalf("%s trial %d: streamed result diverged from batch", name, trial)
			}
		}
	}
}

// TestSolveOptsDeadline: an already-expired deadline yields an empty
// certified prefix marked Partial; a generous one yields the full batch
// answer with Partial false.
func TestSolveOptsDeadline(t *testing.T) {
	in, members := example2()
	res, err := SolveOpts(in, 2, members, SolveOptions{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expired deadline did not mark the result partial")
	}
	if len(res.Seeds) != 0 {
		t.Fatalf("expired deadline still picked %v", res.Seeds)
	}

	batch, err := Solve(in, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	res, err = SolveOpts(in, 2, members, SolveOptions{Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("generous deadline marked the result partial")
	}
	if !reflect.DeepEqual(res.Seeds, batch.Seeds) || res.Covered != batch.Covered {
		t.Fatalf("generous deadline changed the answer: %+v vs %+v", res, batch)
	}
}
