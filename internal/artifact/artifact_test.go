package artifact

import (
	"sync"
	"testing"
)

// TestStashConsumeOnce: Has observes without consuming, Take consumes exactly
// once, and Put replaces.
func TestStashConsumeOnce(t *testing.T) {
	s := NewStash()
	req := Request{Unit: "part", Topic: 3, Aux: 7}
	if s.Has(req) {
		t.Fatal("empty stash has an entry")
	}
	if _, ok := s.Take(req); ok {
		t.Fatal("empty stash served an entry")
	}
	s.Put(req, []byte("old"))
	s.Put(req, []byte("new"))
	if !s.Has(req) || !s.Has(req) {
		t.Fatal("Has consumed the entry")
	}
	if s.Has(Request{Unit: "part", Topic: 3, Aux: 8}) {
		t.Fatal("aux is not part of the key")
	}
	if b, ok := s.Take(req); !ok || string(b) != "new" {
		t.Fatalf("Take = %q, %v; want the replacing payload", b, ok)
	}
	if _, ok := s.Take(req); ok || s.Has(req) {
		t.Fatal("entry survived its Take")
	}
}

// TestStashConcurrentPutTake is the stash under concurrent load goroutines
// and -race: one goroutine stashes a round while others drain it, and every
// payload is delivered to exactly one taker.
func TestStashConcurrentPutTake(t *testing.T) {
	const units, takers = 2000, 4
	s := NewStash()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < units; i++ {
			s.Put(Request{Unit: "part", Aux: int64(i)}, []byte{byte(i)})
		}
	}()
	taken := make([][]bool, takers)
	for k := range taken {
		taken[k] = make([]bool, units)
		wg.Add(1)
		go func(mine []bool) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < units; i++ {
					req := Request{Unit: "part", Aux: int64(i)}
					if !s.Has(req) {
						continue
					}
					if b, ok := s.Take(req); ok {
						if mine[i] || len(b) != 1 || b[0] != byte(i) {
							t.Errorf("unit %d: taken twice by one goroutine or wrong payload %v", i, b)
						}
						mine[i] = true
					}
				}
			}
		}(taken[k])
	}
	wg.Wait()
	for i := 0; i < units; i++ {
		n := 0
		for k := range taken {
			if taken[k][i] {
				n++
			}
		}
		if _, left := s.Take(Request{Unit: "part", Aux: int64(i)}); left {
			n++
		}
		if n != 1 {
			t.Fatalf("unit %d delivered %d times, want exactly once", i, n)
		}
	}
}
