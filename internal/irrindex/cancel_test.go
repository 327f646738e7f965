package irrindex

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kbtim/internal/diskio"
	"kbtim/internal/topic"
)

// gatedReader wraps a Segmented so that every read AFTER the first
// blockAfter query reads parks until the gate opens — the "blocking
// reader" of the cancellation tests: it freezes a query mid-artifact so
// the test can cancel the context while the fetch is in flight and then
// observe exactly how much further the query runs.
type gatedReader struct {
	inner   diskio.Segmented
	reads   atomic.Int64
	armed   atomic.Bool
	after   int64         // reads beyond this block (once armed)
	entered chan struct{} // signals a read is parked at the gate
	gate    chan struct{} // close to release parked reads
}

func newGatedReader(inner diskio.Segmented, after int64) *gatedReader {
	return &gatedReader{
		inner:   inner,
		after:   after,
		entered: make(chan struct{}, 64),
		gate:    make(chan struct{}),
	}
}

func (g *gatedReader) ReadSegment(off, length int64) ([]byte, error) {
	if g.armed.Load() && g.reads.Add(1) > g.after {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.inner.ReadSegment(off, length)
}

func (g *gatedReader) Size() int64              { return g.inner.Size() }
func (g *gatedReader) Counter() *diskio.Counter { return g.inner.Counter() }

// TestQueryCtxCanceledStopsWithinOneRound is the acceptance test for
// query cancellation: a query whose client disconnects mid-partition-fetch
// (blocking reader + canceled context) finishes that ONE fetch and stops at
// the next round boundary — it neither runs Algorithm 4 to completion nor
// touches another partition.
func TestQueryCtxCanceledStopsWithinOneRound(t *testing.T) {
	raw := buildFigure1Mem(t, 2) // δ=2: several partitions per keyword
	g := newGatedReader(diskio.NewMem(raw, nil), 1)
	idx, err := Open(g) // Open's reads happen un-armed
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Dir(topicMusic).Partitions) < 2 {
		t.Fatalf("fixture has %d partitions; need >= 2 to observe the round boundary", len(idx.Dir(topicMusic).Partitions))
	}
	g.armed.Store(true) // query read 1 (the IP table) passes, read 2 (partition 0) parks

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *QueryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := idx.QueryCtx(ctx, topic.Query{Topics: []int{topicMusic}, K: 2})
		done <- outcome{res, err}
	}()

	select {
	case <-g.entered: // the partition-0 fetch is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the partition fetch")
	}
	cancel()
	close(g.gate) // let the in-flight fetch complete

	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("got (%v, %v), want context.Canceled", o.res, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return")
	}
	// IP + exactly the one in-flight partition: the round boundary stopped
	// the query before any further partition fetch.
	if n := g.reads.Load(); n != 2 {
		t.Fatalf("canceled query performed %d reads, want 2 (IP + the in-flight partition)", n)
	}
}

// TestQueryCtxPreCanceled: a context canceled before dispatch fails fast
// with no I/O at all.
func TestQueryCtxPreCanceled(t *testing.T) {
	g := newGatedReader(diskio.NewMem(buildFigure1Mem(t, 2), nil), 0)
	idx, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.QueryCtx(ctx, topic.Query{Topics: []int{topicMusic}, K: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := g.reads.Load(); n != 0 {
		t.Fatalf("pre-canceled query performed %d reads, want 0", n)
	}
}

// TestQueryCtxCanceledParallel: cancellation also lands when the parallel IP
// phase is on (its goroutines observe the canceled context and the query
// surfaces it after the join).
func TestQueryCtxCanceledParallel(t *testing.T) {
	g := newGatedReader(diskio.NewMem(buildFigure1Mem(t, 2), nil), 1)
	idx, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetQueryParallelism(4)
	g.armed.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := idx.QueryCtx(ctx, topic.Query{Topics: []int{topicMusic, topicBook, topicSport}, K: 2})
		done <- err
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached a gated read")
	}
	cancel()
	close(g.gate)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled parallel query did not return")
	}
}
