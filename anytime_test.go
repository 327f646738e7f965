package kbtim

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

// queryFn is a Query method with its strategy fixed, so the tables below can
// range over (deployment, strategy) pairs with one call shape.
type queryFn func(context.Context, Query, StreamOptions) (*Result, error)

func withStrategy(s Strategy, query func(context.Context, Strategy, Query, StreamOptions) (*Result, error)) queryFn {
	return func(ctx context.Context, q Query, so StreamOptions) (*Result, error) {
		return query(ctx, s, q, so)
	}
}

// TestStreamMatchesBatch is the root-package anytime property: for every
// strategy (rr, irr) over both a single Engine and a sharded deployment,
// the emitted (seed, marginal) sequence concatenated is byte-identical to
// the batch QueryXXCtx result, the running spread lower bound never
// decreases, and it lands exactly on the final EstSpread.
func TestStreamMatchesBatch(t *testing.T) {
	ds := shardedDataset(t)
	s, single := buildSharded(t, ds, 2, ShardHash, 0)

	paths := map[string]queryFn{
		"engine/rr":   withStrategy(StrategyRR, single.Query),
		"engine/irr":  withStrategy(StrategyIRR, single.Query),
		"sharded/rr":  withStrategy(StrategyRR, s.Query),
		"sharded/irr": withStrategy(StrategyIRR, s.Query),
	}
	for _, q := range shardedQueries() {
		for name, run := range paths {
			batch, err := run(context.Background(), q, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var seeds []Seed
			var marginals []int
			lastLB := math.Inf(-1)
			res, err := run(context.Background(), q, StreamOptions{
				Emit: func(seed Seed, marginal int, spreadLB float64) {
					seeds = append(seeds, seed)
					marginals = append(marginals, marginal)
					if spreadLB < lastLB {
						t.Errorf("%s %v: spread lower bound decreased: %v -> %v", name, q, lastLB, spreadLB)
					}
					lastLB = spreadLB
				},
			})
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			if res.Partial {
				t.Fatalf("%s %v: partial without a deadline", name, q)
			}
			if !reflect.DeepEqual(seeds, res.Seeds) || !reflect.DeepEqual(marginals, res.Marginals) {
				t.Fatalf("%s %v: emitted (%v,%v) != result (%v,%v)",
					name, q, seeds, marginals, res.Seeds, res.Marginals)
			}
			if !reflect.DeepEqual(res.Seeds, batch.Seeds) || !reflect.DeepEqual(res.Marginals, batch.Marginals) ||
				res.EstSpread != batch.EstSpread || res.NumRRSets != batch.NumRRSets {
				t.Fatalf("%s %v: streamed result diverged from batch", name, q)
			}
			if len(seeds) > 0 && math.Abs(lastLB-res.EstSpread) > 1e-9 {
				t.Fatalf("%s %v: final spread lower bound %v != EstSpread %v", name, q, lastLB, res.EstSpread)
			}
		}
	}
}

// TestStreamDeadline: an expired deadline returns the best certified
// prefix (possibly empty) with Partial set and no error, on both
// strategies; a deadline large enough to finish returns the identical full
// answer with Partial false.
func TestStreamDeadline(t *testing.T) {
	ds := shardedDataset(t)
	_, single := buildSharded(t, ds, 2, ShardHash, 0)
	q := Query{Topics: []int{0, 1}, K: 3}

	for name, run := range map[string]queryFn{
		"rr":  withStrategy(StrategyRR, single.Query),
		"irr": withStrategy(StrategyIRR, single.Query),
	} {
		res, err := run(context.Background(), q, StreamOptions{Deadline: time.Now().Add(-time.Second)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Partial {
			t.Fatalf("%s: expired deadline did not mark the result partial", name)
		}

		batch, err := run(context.Background(), q, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err = run(context.Background(), q, StreamOptions{Deadline: time.Now().Add(time.Hour)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Partial {
			t.Fatalf("%s: generous deadline marked the result partial", name)
		}
		if !reflect.DeepEqual(res.Seeds, batch.Seeds) || res.EstSpread != batch.EstSpread {
			t.Fatalf("%s: generous deadline changed the answer", name)
		}
	}
}
