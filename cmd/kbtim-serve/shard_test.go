package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kbtim"
)

// shardedFixture writes a dataset plus single-engine and 2-shard (hash)
// index files to disk — the exact layout kbtim-build -shards produces —
// and returns the dataset, per-shard options, and the paths.
func shardedFixture(t *testing.T, shards int) (ds *kbtim.Dataset, opts kbtim.Options, rrPath, irrPath string) {
	t.Helper()
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts = kbtim.Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
		DecodedCacheBytes:  4 << 20,
	}
	builder, err := kbtim.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	dir := t.TempDir()
	rrPath = filepath.Join(dir, "ads.rr")
	irrPath = filepath.Join(dir, "ads.irr")
	if _, err := builder.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	for kind, path := range map[string]string{"rr": rrPath, "irr": irrPath} {
		if _, err := builder.BuildShardIndexes(kind, shards, kbtim.ShardHash,
			func(i int) string { return kbtim.ShardIndexPath(path, i) }); err != nil {
			t.Fatal(err)
		}
	}
	return ds, opts, rrPath, irrPath
}

// TestShardedServerParity runs the full serving path against a 2-shard hash
// backend and a single-engine backend over the same dataset: every query
// (single-shard and spanning) must return byte-identical seeds and spreads,
// /keywords must expose the same universe, and /stats must carry the
// per-shard breakdown whose counters the aggregate view sums.
func TestShardedServerParity(t *testing.T) {
	const shards = 2
	ds, opts, rrPath, irrPath := shardedFixture(t, shards)

	single, closeSingle, err := openBackend(ds, opts, rrPath, irrPath, 1, kbtim.ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSingle()
	sharded, closeSharded, err := openBackend(ds, opts, rrPath, irrPath, shards, kbtim.ShardHash, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSharded()

	one := httptest.NewServer(NewServer(single, 4).Handler())
	defer one.Close()
	many := httptest.NewServer(NewServer(sharded, 4).Handler())
	defer many.Close()

	// Same keyword universe through the router.
	var kwOne, kwMany struct {
		Topics []int `json:"topics"`
	}
	for _, probe := range []struct {
		ts  *httptest.Server
		dst *struct {
			Topics []int `json:"topics"`
		}
	}{{one, &kwOne}, {many, &kwMany}} {
		resp, err := http.Get(probe.ts.URL + "/keywords")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(probe.dst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(kwOne.Topics) == 0 || !reflect.DeepEqual(kwOne.Topics, kwMany.Topics) {
		t.Fatalf("keyword universes differ: single %v, sharded %v", kwOne.Topics, kwMany.Topics)
	}

	queries := []queryRequest{
		{Topics: []int{0}, K: 3, Strategy: "irr"},
		{Topics: []int{0}, K: 3, Strategy: "rr"},
		{Topics: []int{1, 4}, K: 4, Strategy: "irr"},
		{Topics: kwOne.Topics, K: 5, Strategy: "irr"}, // spans both shards
		{Topics: kwOne.Topics, K: 5, Strategy: "rr"},
	}
	for qi, q := range queries {
		a, respA := postQuery(t, one, q)
		b, respB := postQuery(t, many, q)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("query %d: single %s, sharded %s", qi, respA.Status, respB.Status)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.EstSpread != b.EstSpread || a.NumRRSets != b.NumRRSets {
			t.Fatalf("query %d diverged:\n single  %v / %v\n sharded %v / %v",
				qi, a.Seeds, a.EstSpread, b.Seeds, b.EstSpread)
		}
	}

	// The sharded /stats reply aggregates the per-shard counters.
	resp, err := http.Get(many.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumShards != shards || stats.ShardMode != "hash" || len(stats.Shards) != shards {
		t.Fatalf("shard section: num=%d mode=%q shards=%d", stats.NumShards, stats.ShardMode, len(stats.Shards))
	}
	if stats.Served != int64(len(queries)) {
		t.Fatalf("served = %d, want %d", stats.Served, len(queries))
	}
	var hits, misses int64
	kw := 0
	for _, sh := range stats.Shards {
		hits += sh.RRDecoded.Hits + sh.IRRDecoded.Hits
		misses += sh.RRDecoded.Misses + sh.IRRDecoded.Misses
		kw += sh.Keywords
	}
	if agg := stats.RRDecoded.Hits + stats.IRRDecoded.Hits; agg != hits {
		t.Fatalf("aggregate decoded hits %d != shard sum %d", agg, hits)
	}
	if agg := stats.RRDecoded.Misses + stats.IRRDecoded.Misses; agg != misses || misses == 0 {
		t.Fatalf("aggregate decoded misses %d vs shard sum %d", agg, misses)
	}
	if kw != len(kwOne.Topics) {
		t.Fatalf("shards own %d keywords, universe has %d", kw, len(kwOne.Topics))
	}

	// The single-engine /stats carries the degenerate shard fields.
	respS, err := http.Get(one.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer respS.Body.Close()
	var statsOne statsResponse
	if err := json.NewDecoder(respS.Body).Decode(&statsOne); err != nil {
		t.Fatal(err)
	}
	if statsOne.NumShards != 1 || len(statsOne.Shards) != 0 {
		t.Fatalf("single-engine shard section: %d/%d", statsOne.NumShards, len(statsOne.Shards))
	}
}

// countFDs counts this process's open file descriptors (Linux only;
// callers skip elsewhere) — the ground truth for "a failed open leaked no
// file handles".
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestOpenBackendMissingShardFile: a non-empty shard without its index file
// fails fast with a hint naming the build command, tearing down cleanly.
func TestOpenBackendMissingShardFile(t *testing.T) {
	ds, opts, rrPath, irrPath := shardedFixture(t, 2)
	_ = rrPath
	checkFDs := runtime.GOOS == "linux"
	before := 0
	if checkFDs {
		before = countFDs(t)
	}
	// 3-shard serve over 2-shard files: at least one shard file is missing,
	// and the shards that DID open must be torn down — earlier engines
	// closed, no file handle left behind.
	_, _, err := openBackend(ds, opts, "", irrPath, 3, kbtim.ShardHash, 0)
	if err == nil {
		t.Fatal("missing shard file accepted")
	}
	want := fmt.Sprintf("%s.s", irrPath)
	if got := err.Error(); !strings.Contains(got, want) || !strings.Contains(got, "kbtim-build") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if checkFDs {
		if after := countFDs(t); after != before {
			t.Fatalf("failed openBackend leaked file descriptors: %d before, %d after", before, after)
		}
	}
}
