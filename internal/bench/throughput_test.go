package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunThroughputShape pins the acceptance contract of the serving
// benchmark: queries/sec is reported for at least two worker counts, and
// the cached configurations achieve a positive hit rate on the
// repeated-keyword workload.
func TestRunThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput smoke test skipped in -short mode")
	}
	env := tinyEnv(t)
	points, err := RunThroughput(t.Context(), env, Twitter)
	if err != nil {
		t.Fatal(err)
	}
	workerCounts := map[int]bool{}
	cachedRows, uncachedRows := 0, 0
	for _, p := range points {
		if p.QPS <= 0 || p.Queries <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		workerCounts[p.Workers] = true
		if p.CacheBytes > 0 {
			cachedRows++
			if p.HitRate <= 0 {
				t.Fatalf("cached run has zero hit rate: %+v", p)
			}
		} else {
			uncachedRows++
			if p.HitRate != 0 {
				t.Fatalf("uncached run reports a hit rate: %+v", p)
			}
			if p.DiskReads == 0 {
				t.Fatalf("uncached run reports zero disk reads: %+v", p)
			}
		}
	}
	if len(workerCounts) < 2 {
		t.Fatalf("need >= 2 worker counts, got %v", workerCounts)
	}
	if cachedRows == 0 || uncachedRows == 0 {
		t.Fatalf("sweep must cover cache on and off: %d cached, %d uncached", cachedRows, uncachedRows)
	}
}

// TestRunShardedThroughputShape pins the sharded serving benchmark: the
// shard axis covers 1, 2, and 4 engines, every point is sane, and at least
// one query in the workload actually scatters across shards (otherwise the
// axis never exercises the merge path).
func TestRunShardedThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded throughput smoke test skipped in -short mode")
	}
	env := tinyEnv(t)
	points, err := RunShardedThroughput(t.Context(), env, News)
	if err != nil {
		t.Fatal(err)
	}
	shardCounts := map[int]bool{}
	scatterSeen := false
	for _, p := range points {
		if p.QPS <= 0 || p.Queries <= 0 || p.MeanMS <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		shardCounts[p.Shards] = true
		if p.Shards == 1 && p.Scatter != 0 {
			t.Fatalf("1-shard row reports scatter: %+v", p)
		}
		if p.Shards > 1 && p.Scatter > 0 {
			scatterSeen = true
		}
	}
	for _, want := range []int{1, 2, 4} {
		if !shardCounts[want] {
			t.Fatalf("shard axis missing %d: %v", want, shardCounts)
		}
	}
	if !scatterSeen {
		t.Fatal("no multi-shard row scattered any query; the merge path went unmeasured")
	}
}

// TestShardedThroughputRenders checks the registry entry end to end.
func TestShardedThroughputRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded throughput smoke test skipped in -short mode")
	}
	env := tinyEnv(t)
	var buf bytes.Buffer
	if err := ShardedThroughput(t.Context(), &buf, env); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"shards", "scatter", "q/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestThroughputRenders checks the registry entry end to end.
func TestThroughputRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput smoke test skipped in -short mode")
	}
	env := tinyEnv(t)
	var buf bytes.Buffer
	if err := Throughput(t.Context(), &buf, env); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"q/s", "hit-rate", "workers", "off"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
