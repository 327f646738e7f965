package kbtim

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"
)

// querier is what Engine and Sharded have in common on the query side: the
// one entry point and the fixed-strategy wrappers the frozen callers use.
type querier interface {
	Query(context.Context, Strategy, Query, StreamOptions) (*Result, error)
	QueryRRCtx(context.Context, Query) (*Result, error)
	QueryIRRCtx(context.Context, Query) (*Result, error)
}

// TestQueryEntryPoint pins Query(ctx, strategy, q, opts) against the compat
// wrappers on every deployment shape: with zero options and with an emission
// sink the result is the wrapper's byte for byte and the concatenated
// emissions are the result; with an expired deadline the result is a Partial
// certified prefix of it. A strategy that names no algorithm, or one whose
// index is not attached, is an error on every shape — never a panic.
func TestQueryEntryPoint(t *testing.T) {
	ds := shardedDataset(t)
	hash, single := buildSharded(t, ds, 4, ShardHash, 0)
	deployments := []struct {
		name string
		d    querier
	}{{"engine", single}, {"sharded-hash", hash}}
	ctx := context.Background()

	for _, dep := range deployments {
		for _, st := range []Strategy{StrategyRR, StrategyIRR} {
			wrapper := dep.d.QueryRRCtx
			if st == StrategyIRR {
				wrapper = dep.d.QueryIRRCtx
			}
			for _, q := range shardedQueries() {
				want, err := wrapper(ctx, q)
				if err != nil {
					t.Fatalf("%s %s %v: wrapper: %v", dep.name, st, q, err)
				}
				for _, mode := range []string{"zero", "emit", "expired"} {
					var seeds []Seed
					var marginals []int
					var so StreamOptions
					if mode != "zero" {
						so.Emit = func(seed Seed, marginal int, _ float64) {
							seeds = append(seeds, seed)
							marginals = append(marginals, marginal)
						}
					}
					if mode == "expired" {
						so.Deadline = time.Now().Add(-time.Second)
					}
					got, err := dep.d.Query(ctx, st, q, so)
					if err != nil {
						t.Fatalf("%s %s %v %s: %v", dep.name, st, q, mode, err)
					}
					if mode != "zero" && (!reflect.DeepEqual(seeds, got.Seeds) || !reflect.DeepEqual(marginals, got.Marginals)) {
						t.Fatalf("%s %s %v %s: emitted (%v,%v) != result (%v,%v)",
							dep.name, st, q, mode, seeds, marginals, got.Seeds, got.Marginals)
					}
					if mode == "expired" {
						n := len(got.Seeds)
						if !got.Partial || n > len(want.Seeds) || len(got.Marginals) != n ||
							!slices.Equal(got.Seeds, want.Seeds[:n]) || !slices.Equal(got.Marginals, want.Marginals[:n]) {
							t.Fatalf("%s %s %v: expired deadline answered (%v,%v,partial=%v), not a certified prefix of (%v,%v)",
								dep.name, st, q, got.Seeds, got.Marginals, got.Partial, want.Seeds, want.Marginals)
						}
						continue
					}
					if got.Partial || !reflect.DeepEqual(got.Seeds, want.Seeds) || !reflect.DeepEqual(got.Marginals, want.Marginals) ||
						got.EstSpread != want.EstSpread || got.NumRRSets != want.NumRRSets || got.PartitionsLoaded != want.PartitionsLoaded {
						t.Fatalf("%s %s %v %s: Query (%v,%v,%v,%d,%d) != wrapper (%v,%v,%v,%d,%d)", dep.name, st, q, mode,
							got.Seeds, got.Marginals, got.EstSpread, got.NumRRSets, got.PartitionsLoaded,
							want.Seeds, want.Marginals, want.EstSpread, want.NumRRSets, want.PartitionsLoaded)
					}
				}
			}
		}
	}

	// Deployments with nothing attached, for the strategy-without-index arm.
	bare := func(mode ShardMode, n int) querier {
		engines := make([]*Engine, n)
		for i := range engines {
			eng, err := NewEngine(ds, shardedOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			engines[i] = eng
		}
		if mode == "" {
			return engines[0]
		}
		s, err := NewSharded(engines, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	q := Query{Topics: []int{0, 1}, K: 2}
	for _, dep := range deployments {
		if _, err := dep.d.Query(ctx, "xx", q, StreamOptions{}); err == nil || err.Error() != `kbtim: unknown strategy "xx" (want rr or irr)` {
			t.Fatalf("%s: unknown strategy: %v", dep.name, err)
		}
	}
	for name, d := range map[string]querier{"engine": bare("", 1), "sharded-hash": bare(ShardHash, 4)} {
		for st, want := range map[Strategy]string{
			StrategyRR:  "kbtim: no RR index opened (call OpenRRIndex)",
			StrategyIRR: "kbtim: no IRR index opened (call OpenIRRIndex)",
		} {
			if _, err := d.Query(ctx, st, q, StreamOptions{}); err == nil || err.Error() != want {
				t.Fatalf("%s %s with no index attached: %v, want %q", name, st, err, want)
			}
		}
	}
}
