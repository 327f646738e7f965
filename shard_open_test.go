package kbtim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// openFDs counts this process's open file descriptors (Linux only; callers
// skip elsewhere). The fd table is the ground truth for "no leaked file
// handles" — Close bookkeeping can lie, /proc/self/fd cannot.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestOpenShardedIndexesPartialFailure: when shard i's file is missing or
// corrupt, the open fails with a diagnosable error AND every engine already
// assembled — including the ones holding open shard files — is closed, so
// a failed open leaks no file handles.
func TestOpenShardedIndexesPartialFailure(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd counting reads /proc/self/fd")
	}
	ds := shardedDataset(t)
	dir := t.TempDir()
	builder, err := NewEngine(ds, shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	irrPath := filepath.Join(dir, "ads.irr")
	if _, err := builder.BuildShardIndexes("irr", 2, ShardHash, func(i int) string {
		return ShardIndexPath(irrPath, i)
	}); err != nil {
		t.Fatal(err)
	}

	// Missing shard-1 file: shard 0 has already opened its index when the
	// failure hits.
	if err := os.Remove(ShardIndexPath(irrPath, 1)); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	s, err := OpenShardedIndexes(ds, shardedOptions(), "", irrPath, 2, ShardHash, 0)
	if err == nil {
		s.Close()
		t.Fatal("open succeeded with shard 1's file missing")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "kbtim-build -shards 2") {
		t.Fatalf("error should name the shard and the rebuild command, got: %v", err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed open leaked file descriptors: %d before, %d after", before, after)
	}

	// Corrupt shard-1 file: same contract on the parse-failure path.
	if err := os.WriteFile(ShardIndexPath(irrPath, 1), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	before = openFDs(t)
	if s, err = OpenShardedIndexes(ds, shardedOptions(), "", irrPath, 2, ShardHash, 0); err == nil {
		s.Close()
		t.Fatal("open succeeded with shard 1's file corrupt")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed open (corrupt file) leaked file descriptors: %d before, %d after", before, after)
	}
}

// TestOpenShardedIndexesRoundTrip: the success path opens, answers, and
// closes without leaking descriptors, and matches kbtim-build's file
// naming end to end.
func TestOpenShardedIndexesRoundTrip(t *testing.T) {
	ds := shardedDataset(t)
	dir := t.TempDir()
	builder, err := NewEngine(ds, shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	irrPath := filepath.Join(dir, "ads.irr")
	if _, err := builder.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildShardIndexes("irr", 2, ShardHash, func(i int) string {
		return ShardIndexPath(irrPath, i)
	}); err != nil {
		t.Fatal(err)
	}
	if err := builder.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	q := Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 4}
	want, err := builder.QueryIRR(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenShardedIndexes(ds, shardedOptions(), "", irrPath, 2, ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.QueryIRR(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seeds) != len(want.Seeds) || got.EstSpread != want.EstSpread {
		t.Fatalf("got (%v, %v), want (%v, %v)", got.Seeds, got.EstSpread, want.Seeds, want.EstSpread)
	}
	for i := range got.Seeds {
		if got.Seeds[i] != want.Seeds[i] || got.Marginals[i] != want.Marginals[i] {
			t.Fatalf("seed/marginal %d diverged: (%d,%d) vs (%d,%d)",
				i, got.Seeds[i], got.Marginals[i], want.Seeds[i], want.Marginals[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestEngineQueryCtxCanceled: the engine-level ctx variants surface
// cancellation (the fine-grained boundary behavior is pinned in the index
// packages; here we pin the plumbing and the Sharded scatter path).
func TestEngineQueryCtxCanceled(t *testing.T) {
	ds := shardedDataset(t)
	s, single := buildSharded(t, ds, 2, ShardHash, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 3}
	if _, err := single.QueryIRRCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("engine irr: got %v, want context.Canceled", err)
	}
	if _, err := single.QueryRRCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("engine rr: got %v, want context.Canceled", err)
	}
	if _, err := s.QueryIRRCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded irr: got %v, want context.Canceled", err)
	}
	if _, err := s.QueryRRCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("sharded rr: got %v, want context.Canceled", err)
	}
}
