package irrindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/pool"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// TestDecodePartitionErrorReturnsPooledArrays is the regression test for
// an early-error pool leak: a pooled decodePartition that died mid-decode
// used to abandon the block's four borrowed arrays (users, setIDs, lists,
// arena) instead of releasing them. The test corrupts one partition's
// payload so the decode fails after the pool gets, then asserts the pool's
// global get/put counters still balance.
func TestDecodePartitionErrorReturnsPooledArrays(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
		PartitionSize: 2,
	}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	// Locate the keyword's first partition via a pristine open, then
	// 0xFF-fill its payload: the leading user varint either overflows or
	// decodes out of range, failing the decode. The prelude is untouched,
	// so reopening succeeds.
	idx, err := Open(diskio.NewMem(data, nil))
	if err != nil {
		t.Fatal(err)
	}
	d := idx.dirs[topicMusic]
	if len(d.Partitions) == 0 {
		t.Fatal("test keyword has no partitions")
	}
	p := d.Partitions[0]
	for i := p.Off; i < p.Off+p.Len; i++ {
		data[i] = 0xFF
	}
	mem := diskio.NewMem(data, nil)
	idx, err = Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	d = idx.dirs[topicMusic]

	g0, p0 := pool.Counts()
	if _, err := idx.decodePartition(context.Background(), mem, d, 0, int(d.ThetaW)); err == nil {
		t.Fatal("decodePartition succeeded on a 0xFF-filled partition; corruption setup is broken")
	}
	g1, p1 := pool.Counts()
	if g1-g0 != p1-p0 {
		t.Fatalf("decodePartition error path leaked pooled slices: %d gets vs %d puts", g1-g0, p1-p0)
	}
}

// TestQueryPoolBalance: every query returns every pooled array it borrows —
// NRA state, heap and consumed blocks — on a single index, across shard
// indexes, when an expired deadline cuts it short and when its context is
// already canceled, with the decoded cache off and on, and with serial and
// parallel IP loads. The pool counters
// are process-global, so this test must not run in parallel with others.
func TestQueryPoolBalance(t *testing.T) {
	queries := []topic.Query{
		{Topics: []int{0}, K: 5},
		{Topics: []int{0, 2}, K: 8},
		{Topics: []int{0, 1, 2, 3, 4, 5}, K: 12},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cache := range []bool{false, true} {
		for _, par := range []int{0, 3} {
			full, owner := shardFixture(t, 2, cache, par)
			runs := []struct {
				name  string
				query func(topic.Query) error
			}{
				{"single", func(q topic.Query) error {
					_, err := full.QueryCtx(context.Background(), q)
					return err
				}},
				{"sharded", func(q topic.Query) error {
					_, err := QueryMultiStreamCtx(context.Background(), owner, q, wris.StreamOptions{})
					return err
				}},
				{"expired deadline", func(q topic.Query) error {
					_, err := QueryMultiStreamCtx(context.Background(), owner, q, wris.StreamOptions{Deadline: time.Now().Add(-time.Second)})
					return err
				}},
				{"canceled", func(q topic.Query) error {
					if _, err := QueryMultiStreamCtx(canceled, owner, q, wris.StreamOptions{}); !errors.Is(err, context.Canceled) {
						return fmt.Errorf("got %v, want context.Canceled", err)
					}
					return nil
				}},
			}
			for _, run := range runs {
				for qi, q := range queries {
					g0, p0 := pool.Counts()
					if err := run.query(q); err != nil {
						t.Fatalf("cache=%v par=%d %s query %d: %v", cache, par, run.name, qi, err)
					}
					if g1, p1 := pool.Counts(); g1-g0 != p1-p0 {
						t.Fatalf("cache=%v par=%d %s query %d leaked pooled arrays: gets %d puts %d",
							cache, par, run.name, qi, g1-g0, p1-p0)
					}
				}
			}
		}
	}
}
