// Command kbtim-build constructs a disk-based KB-TIM index (RR or IRR) for
// a dataset produced by kbtim-gen.
//
// Usage:
//
//	kbtim-build -graph g.bin -profiles p.bin -out ads.irr -type irr \
//	            -epsilon 0.3 -K 50 -delta 100 -max-theta 200000
//
// With -shards N > 1 the keyword universe is partitioned (-shard-mode hash,
// the default, or range) and one subset index per shard is written to
// "<out>.s<i>" — the layout kbtim-serve -shards N opens. Per-keyword sampling
// is seeded by topic ID alone, so shard files hold bit-identical payloads to a
// full build and a sharded deployment answers queries identically to a single
// engine. -workers sets only the build's speed: every value, on every host,
// writes the same bytes.
package main

import (
	"flag"
	"fmt"
	"log"

	"kbtim"
)

func main() {
	log.SetFlags(0)
	var (
		graphPath   = flag.String("graph", "graph.bin", "input graph path")
		profilePath = flag.String("profiles", "profiles.bin", "input profiles path")
		out         = flag.String("out", "ads.irr", "output index path")
		indexType   = flag.String("type", "irr", "index type: rr | irr")
		model       = flag.String("model", "IC", "propagation model: IC | LT")
		epsilon     = flag.Float64("epsilon", 0.3, "approximation ε (paper: 0.1)")
		bigK        = flag.Int("K", 100, "system cap on Q.k (paper: 100)")
		delta       = flag.Int("delta", 100, "IRR partition size δ")
		noCompress  = flag.Bool("no-compress", false, "disable inverted-list compression")
		thetaHat    = flag.Bool("theta-hat", false, "size with the conservative θ̂_w bound (Eqn 8)")
		maxTheta    = flag.Int("max-theta", 0, "cap on per-keyword RR sets (0 = none)")
		seed        = flag.Uint64("seed", 1, "RNG seed")
		workers     = flag.Int("workers", 0, "sampling workers, speed only (0 = all cores)")
		shards      = flag.Int("shards", 1, "write per-shard index files <out>.s<i> for a sharded deployment")
		shardMode   = flag.String("shard-mode", "hash", "keyword→shard assignment: hash | range")
	)
	flag.Parse()

	ds, err := kbtim.LoadDataset(*graphPath, *profilePath)
	if err != nil {
		log.Fatalf("kbtim-build: %v", err)
	}
	eng, err := kbtim.NewEngine(ds, kbtim.Options{
		Epsilon:            *epsilon,
		K:                  *bigK,
		Model:              kbtim.Model(*model),
		CompressOff:        *noCompress,
		PartitionSize:      *delta,
		ThetaHatSizing:     *thetaHat,
		MaxThetaPerKeyword: *maxTheta,
		Seed:               *seed,
		Workers:            *workers,
	})
	if err != nil {
		log.Fatalf("kbtim-build: %v", err)
	}
	if *indexType != "rr" && *indexType != "irr" {
		log.Fatalf("kbtim-build: unknown index type %q", *indexType)
	}
	if *shards < 1 {
		log.Fatalf("kbtim-build: -shards must be >= 1, got %d", *shards)
	}

	printReport := func(path string, report *kbtim.BuildReport) {
		fmt.Printf("wrote %s: %d keywords, Σθ_w = %d RR sets (mean size %.2f), %.1f MB in %v\n",
			path, report.Keywords, report.SumTheta, report.MeanRRSetSize,
			float64(report.Bytes)/(1<<20), report.Elapsed.Round(1e6))
		if report.Capped > 0 {
			fmt.Printf("warning: %d keyword(s) hit -max-theta; the (1-1/e-ε) guarantee is voided for them\n",
				report.Capped)
		}
	}

	if *shards > 1 {
		reports, err := eng.BuildShardIndexes(*indexType, *shards, kbtim.ShardMode(*shardMode),
			func(i int) string { return kbtim.ShardIndexPath(*out, i) })
		if err != nil {
			log.Fatalf("kbtim-build: %v", err)
		}
		for i, report := range reports {
			if report == nil {
				fmt.Printf("shard %d owns no keywords; no file written\n", i)
				continue
			}
			printReport(kbtim.ShardIndexPath(*out, i), report)
		}
		return
	}
	var report *kbtim.BuildReport
	if *indexType == "rr" {
		report, err = eng.BuildRRIndex(*out)
	} else {
		report, err = eng.BuildIRRIndex(*out)
	}
	if err != nil {
		log.Fatalf("kbtim-build: %v", err)
	}
	printReport(*out, report)
}
