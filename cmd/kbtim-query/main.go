// Command kbtim-query answers KB-TIM queries against a dataset, using any
// of the three processing strategies (wris, rr, irr) or the non-targeted
// RIS baseline.
//
// Usage:
//
//	kbtim-query -graph g.bin -profiles p.bin -index ads.irr -type irr \
//	            -topics 2,7 -k 10 -evaluate
//
// Sharded index sets (the per-shard "<index>.s<i>" files kbtim-build
// -shards writes) are opened with the matching flags; results are identical
// to querying the unsharded index:
//
//	kbtim-query -graph g.bin -profiles p.bin -index ads.irr -type irr \
//	            -shards 2 -shard-mode hash -topics 2,7 -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"kbtim"
)

func parseTopics(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("no -topics given")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad topic %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	var (
		graphPath   = flag.String("graph", "graph.bin", "input graph path")
		profilePath = flag.String("profiles", "profiles.bin", "input profiles path")
		indexPath   = flag.String("index", "", "index path (for -type rr|irr)")
		shards      = flag.Int("shards", 1, "open a sharded index set: shard i at <index>.s<i> (for -type rr|irr)")
		shardMode   = flag.String("shard-mode", "hash", "keyword→shard assignment of the sharded set: hash | range")
		method      = flag.String("type", "irr", "strategy: wris | rr | irr | ris")
		model       = flag.String("model", "IC", "propagation model: IC | LT")
		topicsFlag  = flag.String("topics", "", "comma-separated advertisement keywords")
		k           = flag.Int("k", 10, "number of seeds Q.k")
		epsilon     = flag.Float64("epsilon", 0.3, "approximation ε (online methods)")
		bigK        = flag.Int("K", 100, "system cap on Q.k")
		maxTheta    = flag.Int("max-theta", 0, "per-keyword sampling cap (0 = none)")
		seed        = flag.Uint64("seed", 1, "RNG seed")
		evaluate    = flag.Bool("evaluate", false, "Monte-Carlo-verify the result spread")
		rounds      = flag.Int("rounds", 5000, "Monte-Carlo rounds for -evaluate")
		timeout     = flag.Duration("timeout", 0, "abort the query with an error after this long, 0 = none (for -type rr|irr)")
		deadline    = flag.Duration("deadline", 0, "anytime deadline: past it, return the best certified seed prefix instead of erroring, 0 = none (for -type rr|irr)")
		stream      = flag.Bool("stream", false, "print each seed the moment it is certified, with its running spread lower bound (for -type rr|irr)")
	)
	flag.Parse()

	ds, err := kbtim.LoadDataset(*graphPath, *profilePath)
	if err != nil {
		log.Fatalf("kbtim-query: %v", err)
	}
	opts := kbtim.Options{
		Epsilon:            *epsilon,
		K:                  *bigK,
		Model:              kbtim.Model(*model),
		MaxThetaPerKeyword: *maxTheta,
		Seed:               *seed,
	}
	eng, err := kbtim.NewEngine(ds, opts)
	if err != nil {
		log.Fatalf("kbtim-query: %v", err)
	}
	defer eng.Close()
	if *shards < 1 {
		log.Fatalf("kbtim-query: -shards must be >= 1, got %d", *shards)
	}
	if *shards > 1 && *method != "rr" && *method != "irr" {
		log.Fatalf("kbtim-query: -shards applies to the disk indexes only (-type rr|irr), not %q", *method)
	}
	if (*timeout > 0 || *deadline > 0 || *stream) && *method != "rr" && *method != "irr" {
		log.Fatalf("kbtim-query: -timeout/-deadline/-stream apply to the disk indexes only (-type rr|irr), not %q", *method)
	}

	// The two knobs degrade differently on expiry: -timeout cancels the
	// context (the query errors out), -deadline keeps the certified prefix
	// found so far and marks the result partial.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var so kbtim.StreamOptions
	if *deadline > 0 {
		so.Deadline = time.Now().Add(*deadline)
	}
	if *stream {
		so.Emit = func(seed kbtim.Seed, marginal int, spreadLB float64) {
			fmt.Printf("seed:      %d  (marginal %d, spread >= %.3f)\n", seed, marginal, spreadLB)
		}
	}

	var res *kbtim.Result
	var q kbtim.Query
	switch *method {
	case "ris":
		res, err = eng.QueryRIS(*k)
	case "wris", "rr", "irr":
		topics, terr := parseTopics(*topicsFlag)
		if terr != nil {
			log.Fatalf("kbtim-query: %v", terr)
		}
		q = kbtim.Query{Topics: topics, K: *k}
		if *method == "wris" {
			res, err = eng.QueryWRIS(q)
			break
		}
		// One Query call either way: over the engine, or over the per-shard
		// engines assembled from the "<index>.s<i>" files kbtim-build -shards
		// wrote, which return exactly what the unsharded index would.
		st := kbtim.Strategy(*method)
		rrPath, irrPath := *indexPath, ""
		if st == kbtim.StrategyIRR {
			rrPath, irrPath = "", *indexPath
		}
		query := eng.Query
		switch {
		case *shards > 1:
			s, oerr := kbtim.OpenShardedIndexes(ds, opts, rrPath, irrPath, *shards, kbtim.ShardMode(*shardMode), 0)
			if oerr != nil {
				log.Fatalf("kbtim-query: %v", oerr)
			}
			defer s.Close()
			query = s.Query
		case st == kbtim.StrategyRR:
			err = eng.OpenRRIndex(rrPath)
		default:
			err = eng.OpenIRRIndex(irrPath)
		}
		if err != nil {
			log.Fatalf("kbtim-query: %v", err)
		}
		res, err = query(ctx, st, q, so)
	default:
		log.Fatalf("kbtim-query: unknown strategy %q", *method)
	}
	if err != nil {
		log.Fatalf("kbtim-query: %v", err)
	}

	fmt.Printf("seeds:     %v\n", res.Seeds)
	if res.Partial {
		fmt.Println("partial:   deadline expired; seeds are a certified prefix of the full answer")
	}
	fmt.Printf("est.spread %.3f  (from %d RR sets, %v)\n", res.EstSpread, res.NumRRSets, res.Elapsed.Round(1e4))
	if res.IO.Total() > 0 {
		fmt.Printf("I/O:       %d ops (%d seq, %d rand), %.1f KB\n",
			res.IO.Total(), res.IO.SequentialReads, res.IO.RandomReads,
			float64(res.IO.BytesRead)/1024)
	}
	if res.ThetaCapped {
		fmt.Println("warning: sampling was capped; the approximation guarantee is voided")
	}
	if *evaluate && *method != "ris" {
		mc, err := eng.EvaluateSpread(res.Seeds, q, *rounds)
		if err != nil {
			log.Fatalf("kbtim-query: %v", err)
		}
		fmt.Printf("MC spread: %.3f over %d rounds\n", mc, *rounds)
	}
	if *evaluate && *method == "ris" {
		mc, err := eng.EvaluateReach(res.Seeds, *rounds)
		if err != nil {
			log.Fatalf("kbtim-query: %v", err)
		}
		fmt.Printf("MC reach:  %.3f users over %d rounds\n", mc, *rounds)
	}
}
