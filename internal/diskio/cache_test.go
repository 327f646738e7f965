package diskio

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testPayload(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return buf
}

func TestCachedReaderHitMiss(t *testing.T) {
	mem := NewMem(testPayload(256), nil)
	c := NewCachedReader(mem, 1024)

	a, err := c.ReadSegment(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ReadSegment(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, testPayload(256)[:64]) {
		t.Fatal("cached read returned wrong bytes")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The hit must not have touched the inner reader.
	if got := mem.Counter().Stats().Total(); got != 1 {
		t.Fatalf("inner reads = %d, want 1", got)
	}
	if s.Entries != 1 || s.BytesCached != 64 || s.BudgetBytes != 1024 {
		t.Fatalf("occupancy = %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
}

func TestCachedReaderPrefixReads(t *testing.T) {
	payload := testPayload(256)
	c := NewCachedReader(NewMem(payload, nil), 1024)
	// A shorter read at a cached offset is served as a prefix slice — the
	// RR index reads query-dependent prefixes of each keyword's set region
	// at a fixed offset, so this is the cache's hot path.
	if _, err := c.ReadSegment(0, 64); err != nil {
		t.Fatal(err)
	}
	buf, err := c.ReadSegment(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[:32]) {
		t.Fatalf("prefix slice = %v", buf)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// A longer read misses and replaces the shorter entry; the occupancy
	// must account the swap, and the shorter read then hits the new entry.
	long, err := c.ReadSegment(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(long, payload[:128]) {
		t.Fatalf("long read = %v", long)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 || s.BytesCached != 128 {
		t.Fatalf("stats after extend = %+v", s)
	}
	if _, err := c.ReadSegment(0, 64); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 2 {
		t.Fatalf("stats after re-read = %+v", s)
	}
}

func TestCachedReaderEviction(t *testing.T) {
	c := NewCachedReader(NewMem(testPayload(1024), nil), 128)
	// Three 64-byte segments only fit two at a time.
	for _, off := range []int64{0, 64, 128} {
		if _, err := c.ReadSegment(off, 64); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.BytesCached != 128 {
		t.Fatalf("stats = %+v", s)
	}
	// Offset 0 was least recently used and must be gone (a miss), while 128
	// is still resident (a hit).
	if _, err := c.ReadSegment(128, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadSegment(0, 64); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("stats after LRU probe = %+v", s)
	}
}

func TestCachedReaderLRUOrderOnHit(t *testing.T) {
	c := NewCachedReader(NewMem(testPayload(1024), nil), 128)
	c.ReadSegment(0, 64)  // cache [0]
	c.ReadSegment(64, 64) // cache [64, 0]
	c.ReadSegment(0, 64)  // hit → [0, 64]
	c.ReadSegment(128, 64)
	// 64 was LRU and must have been evicted; 0 must survive.
	before := c.Stats().Hits
	c.ReadSegment(0, 64)
	if c.Stats().Hits != before+1 {
		t.Fatal("hit on segment 0 expected (should have been MRU)")
	}
	before = c.Stats().Misses
	c.ReadSegment(64, 64)
	if c.Stats().Misses != before+1 {
		t.Fatal("miss on segment 64 expected (should have been evicted)")
	}
}

func TestCachedReaderOverBudgetSegment(t *testing.T) {
	c := NewCachedReader(NewMem(testPayload(1024), nil), 16)
	if _, err := c.ReadSegment(0, 64); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 0 || s.BytesCached != 0 {
		t.Fatalf("over-budget segment was cached: %+v", s)
	}
	// Zero budget: pure pass-through.
	c0 := NewCachedReader(NewMem(testPayload(64), nil), 0)
	c0.ReadSegment(0, 8)
	c0.ReadSegment(0, 8)
	if s := c0.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("zero-budget cache served a hit: %+v", s)
	}
}

func TestCachedReaderZeroLengthNotCounted(t *testing.T) {
	c := NewCachedReader(NewMem(testPayload(64), nil), 1024)
	s := NewScope(c)
	for i := 0; i < 2; i++ {
		if _, err := s.ReadSegment(8, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("zero-length read touched the cache: %+v", st)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("zero-length read recorded in scope: %+v", st)
	}
	// Bounds errors still surface through the zero-length fast path.
	if _, err := c.ReadSegment(100, 0); err == nil {
		t.Fatal("out-of-range zero-length read accepted")
	}
}

func TestCachedReaderErrorNotCached(t *testing.T) {
	c := NewCachedReader(NewMem(testPayload(64), nil), 1024)
	if _, err := c.ReadSegment(32, 64); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if s := c.Stats(); s.Entries != 0 || s.Misses != 0 {
		t.Fatalf("failed read was counted or cached: %+v", s)
	}
}

func TestCachedReaderConcurrent(t *testing.T) {
	payload := testPayload(4096)
	c := NewCachedReader(NewMem(payload, nil), 512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				off := int64(((g * 131) + i*17) % 4000)
				length := int64(1 + (i % 64))
				buf, err := c.ReadSegment(off, length)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, payload[off:off+length]) {
					t.Errorf("corrupt read at [%d,%d)", off, off+length)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Fatalf("lost reads: %+v", s)
	}
	if s.BytesCached > 512 {
		t.Fatalf("budget exceeded: %+v", s)
	}
}

func TestScopePerQueryAccounting(t *testing.T) {
	shared := NewMem(testPayload(256), nil)
	s1, s2 := NewScope(shared), NewScope(shared)
	s1.ReadSegment(0, 16)
	s1.ReadSegment(16, 16) // sequential for s1
	s2.ReadSegment(100, 8) // unrelated scope
	st1, st2 := s1.Stats(), s2.Stats()
	if st1.RandomReads != 1 || st1.SequentialReads != 1 || st1.BytesRead != 32 {
		t.Fatalf("scope1 = %+v", st1)
	}
	if st2.RandomReads != 1 || st2.SequentialReads != 0 || st2.BytesRead != 8 {
		t.Fatalf("scope2 = %+v", st2)
	}
	// The shared counter still sees everything.
	if tot := shared.Counter().Stats(); tot.Total() != 3 || tot.BytesRead != 40 {
		t.Fatalf("shared = %+v", tot)
	}
}

func TestScopeThroughCache(t *testing.T) {
	cache := NewCachedReader(NewMem(testPayload(256), nil), 1024)
	s1 := NewScope(cache)
	s1.ReadSegment(0, 32) // miss: disk read + miss mark
	s1.ReadSegment(0, 32) // hit: no disk read
	st := s1.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("scope cache counters = %+v", st)
	}
	if st.Total() != 1 || st.BytesRead != 32 {
		t.Fatalf("scope disk counters = %+v", st)
	}
	// A second scope hitting the warm cache performs zero disk I/O.
	s2 := NewScope(cache)
	s2.ReadSegment(0, 32)
	if st := s2.Stats(); st.Total() != 0 || st.CacheHits != 1 {
		t.Fatalf("warm scope = %+v", st)
	}
}

// TestZeroLengthAccountingParity pins the File/Mem accounting contract:
// zero-byte reads are not I/O for either implementation, and identical read
// sequences produce identical counters.
func TestZeroLengthAccountingParity(t *testing.T) {
	payload := testPayload(64)
	path := filepath.Join(t.TempDir(), "parity.bin")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	mem := NewMem(payload, nil)

	type op struct {
		kind string // "at" | "seg"
		off  int64
		n    int64
	}
	steps := []struct {
		name string
		ops  []op
		want Stats
	}{
		{
			name: "zero-length ReadAt is not recorded",
			ops:  []op{{"at", 3, 0}},
			want: Stats{},
		},
		{
			name: "zero-length ReadSegment is not recorded",
			ops:  []op{{"seg", 3, 0}},
			want: Stats{},
		},
		{
			name: "plain reads count identically",
			ops:  []op{{"seg", 0, 8}, {"seg", 8, 8}, {"at", 32, 4}},
			want: Stats{SequentialReads: 1, RandomReads: 2, BytesRead: 20},
		},
		{
			name: "zero-length read does not break adjacency",
			ops:  []op{{"seg", 0, 8}, {"at", 20, 0}, {"seg", 8, 8}},
			want: Stats{SequentialReads: 1, RandomReads: 1, BytesRead: 16},
		},
	}
	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			for name, r := range map[string]interface {
				ReadAt(p []byte, off int64) (int, error)
				ReadSegment(off, length int64) ([]byte, error)
				Counter() *Counter
			}{"file": file, "mem": mem} {
				r.Counter().Reset()
				for _, o := range tc.ops {
					switch o.kind {
					case "at":
						if _, err := r.ReadAt(make([]byte, o.n), o.off); err != nil {
							t.Fatalf("%s: ReadAt(%d,%d): %v", name, o.off, o.n, err)
						}
					case "seg":
						if _, err := r.ReadSegment(o.off, o.n); err != nil {
							t.Fatalf("%s: ReadSegment(%d,%d): %v", name, o.off, o.n, err)
						}
					}
				}
				if got := r.Counter().Stats(); got != tc.want {
					t.Fatalf("%s: stats = %+v, want %+v", name, got, tc.want)
				}
			}
		})
	}
}
