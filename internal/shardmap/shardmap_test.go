package shardmap

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Hash, 16); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New(2, Mode(9), 16); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if _, err := New(2, Hash, 0); err == nil {
		t.Fatal("empty topic space accepted")
	}
	if _, err := New(8, Range, 4); err == nil {
		t.Fatal("range mode with more shards than topics accepted")
	}
	m, err := New(4, Hash, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 4 || m.Mode() != Hash || m.NumTopics() != 16 {
		t.Fatalf("map state = %d/%v/%d", m.NumShards(), m.Mode(), m.NumTopics())
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"hash", Hash}, {"range", Range}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("round trip %q → %q", tc.in, got.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil || !strings.Contains(err.Error(), "want hash or range") {
		t.Fatalf("ParseMode(bogus) error = %v, want one listing hash and range", err)
	}
}

// TestOwnerDeterministicAndTotal: every keyword lands on exactly one valid
// shard, and two independently constructed maps agree (the build/serve
// contract).
func TestOwnerDeterministicAndTotal(t *testing.T) {
	for _, mode := range []Mode{Hash, Range} {
		a, _ := New(4, mode, 200)
		b, _ := New(4, mode, 200)
		for w := 0; w < 200; w++ {
			s := a.Owner(w)
			if s < 0 || s >= 4 {
				t.Fatalf("%v: Owner(%d) = %d out of range", mode, w, s)
			}
			if s != b.Owner(w) {
				t.Fatalf("%v: Owner(%d) differs across instances", mode, w)
			}
		}
	}
}

// TestHashBalance: splitmix over sequential IDs should not collapse onto few
// shards. Loose bound — this guards gross hash bugs, not perfect balance.
func TestHashBalance(t *testing.T) {
	m, _ := New(4, Hash, 1024)
	counts := make([]int, 4)
	for w := 0; w < 1024; w++ {
		counts[m.Owner(w)]++
	}
	for s, c := range counts {
		if c < 128 || c > 384 { // within [0.5x, 1.5x] of the 256 ideal
			t.Fatalf("shard %d owns %d of 1024 keywords: %v", s, c, counts)
		}
	}
}

func TestRangeContiguity(t *testing.T) {
	m, _ := New(3, Range, 10)
	prev := 0
	for w := 0; w < 10; w++ {
		s := m.Owner(w)
		if s < prev {
			t.Fatalf("range owners not monotone at %d: %d after %d", w, s, prev)
		}
		prev = s
	}
	if m.Owner(0) != 0 || m.Owner(9) != 2 {
		t.Fatalf("range endpoints: %d, %d", m.Owner(0), m.Owner(9))
	}
}

// TestPartitionDisjointCover: hash/range partitions are a disjoint cover of
// the universe preserving order.
func TestPartitionDisjointCover(t *testing.T) {
	universe := []int{0, 2, 3, 5, 8, 13, 14, 15}
	for _, mode := range []Mode{Hash, Range} {
		m, _ := New(3, mode, 16)
		parts := m.Partition(universe)
		if len(parts) != 3 {
			t.Fatalf("%v: %d parts", mode, len(parts))
		}
		seen := map[int]int{}
		for s, part := range parts {
			last := -1
			for _, w := range part {
				if m.Owner(w) != s {
					t.Fatalf("%v: topic %d in shard %d but owned by %d", mode, w, s, m.Owner(w))
				}
				if prev, dup := seen[w]; dup {
					t.Fatalf("%v: topic %d in shards %d and %d", mode, w, prev, s)
				}
				seen[w] = s
				if w <= last {
					t.Fatalf("%v: shard %d out of input order: %v", mode, s, part)
				}
				last = w
			}
		}
		if len(seen) != len(universe) {
			t.Fatalf("%v: partition covers %d of %d topics", mode, len(seen), len(universe))
		}
	}
}

// TestShardsRouting: distinct ascending owners, deterministic across calls.
func TestShardsRouting(t *testing.T) {
	m, _ := New(4, Hash, 64)
	topics := []int{1, 9, 33, 42, 9}
	got := m.Shards(topics)
	if len(got) == 0 {
		t.Fatal("no shards for non-empty topics")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("shards not ascending/distinct: %v", got)
		}
	}
	if !reflect.DeepEqual(got, m.Shards(topics)) {
		t.Fatal("routing not deterministic")
	}
	if m.Shards(nil) != nil {
		t.Fatal("empty topics routed somewhere")
	}
}

// TestOwnerOutOfSpace: unknown keywords route to shard 0 so the owning
// engine produces the same validation error a single engine would.
func TestOwnerOutOfSpace(t *testing.T) {
	m, _ := New(4, Hash, 16)
	if m.Owner(-1) != 0 || m.Owner(16) != 0 {
		t.Fatalf("out-of-space owners: %d, %d", m.Owner(-1), m.Owner(16))
	}
}

// TestAffinity: the per-keyword preferred replica is deterministic, in
// range, spreads over the replica set, and is decorrelated from Owner (the
// whole point of the second mix constant — replica choice must not be a
// function of shard choice).
func TestAffinity(t *testing.T) {
	for w := 0; w < 64; w++ {
		if got := Affinity(w, 1); got != 0 {
			t.Fatalf("Affinity(%d, 1) = %d, want 0", w, got)
		}
		if got := Affinity(w, 0); got != 0 {
			t.Fatalf("Affinity(%d, 0) = %d, want 0", w, got)
		}
	}
	const replicas = 3
	counts := make([]int, replicas)
	for w := 0; w < 1024; w++ {
		r := Affinity(w, replicas)
		if r < 0 || r >= replicas {
			t.Fatalf("Affinity(%d, %d) = %d out of range", w, replicas, r)
		}
		if r != Affinity(w, replicas) {
			t.Fatalf("Affinity(%d, %d) not deterministic", w, replicas)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c < 170 || c > 512 { // within [0.5x, 1.5x] of the ~341 ideal
			t.Fatalf("replica %d preferred by %d of 1024 keywords: %v", r, c, counts)
		}
	}
	// Decorrelation from Owner: among keywords owned by shard 0 of a 2-way
	// hash map, the 2-replica affinity must not be constant.
	m, _ := New(2, Hash, 1024)
	seen := map[int]bool{}
	for w := 0; w < 1024; w++ {
		if m.Owner(w) == 0 {
			seen[Affinity(w, 2)] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("replica affinity collapsed to %v for shard-0 keywords", seen)
	}
}
