package irrindex

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// TestQueryStreamMatchesBatch: the emitted (seed, marginal) sequence of a
// streamed NRA query, concatenated, is byte-identical to the batch result —
// including the zero-marginal padding tail, which funnels through the same
// sink — on both the single-index and the sharded QueryMultiStreamCtx path. The
// running spread lower bound never decreases and lands on EstSpread.
func TestQueryStreamMatchesBatch(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	_, idx := buildBoth(t, g, prof, testConfig(), 2)
	_, ownerOf := shardFixture(t, 2, false, 1)
	queries := []topic.Query{
		{Topics: []int{topicMusic}, K: 2},
		{Topics: []int{topicMusic, topicBook}, K: 3},
		{Topics: []int{topicSport, topicCar}, K: 5}, // K big enough to force padding
	}
	for _, q := range queries {
		runs := map[string]func(wris.StreamOptions) (*QueryResult, error){
			"single": func(so wris.StreamOptions) (*QueryResult, error) {
				return idx.QueryStreamCtx(context.Background(), q, so)
			},
			"multi": func(so wris.StreamOptions) (*QueryResult, error) {
				return QueryMultiStreamCtx(context.Background(), ownerOf, q, so)
			},
		}
		for name, run := range runs {
			// Each topology's batch counterpart is the zero-option call of
			// the same body; streaming must reproduce it exactly.
			batch, err := run(wris.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var seeds []uint32
			var marginals []int
			lastLB := math.Inf(-1)
			res, err := run(wris.StreamOptions{Emit: func(seed uint32, marginal int, spreadLB float64) {
				seeds = append(seeds, seed)
				marginals = append(marginals, marginal)
				if spreadLB < lastLB {
					t.Errorf("%s %v: spread lower bound decreased: %v -> %v", name, q, lastLB, spreadLB)
				}
				lastLB = spreadLB
			}})
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

// TestQueryStreamDeadline: an expired anytime deadline keeps whatever
// prefix the NRA certified before it hit (here: nothing, since it expires
// before the first partition round) and marks the result Partial without
// error; a generous deadline is invisible.
func TestQueryStreamDeadline(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	_, idx := buildBoth(t, g, prof, testConfig(), 2)
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 3}

	res, err := idx.QueryStreamCtx(context.Background(), q, wris.StreamOptions{
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expired deadline did not mark the result partial")
	}
	if len(res.Seeds) != 0 {
		t.Fatalf("expired deadline still certified seeds %v", res.Seeds)
	}

	batch, err := idx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err = idx.QueryStreamCtx(context.Background(), q, wris.StreamOptions{
		Deadline: time.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("generous deadline marked the result partial")
	}
	if !reflect.DeepEqual(res.Seeds, batch.Seeds) || res.EstSpread != batch.EstSpread {
		t.Fatal("generous deadline changed the answer")
	}
}
