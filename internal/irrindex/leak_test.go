package irrindex

import (
	"bytes"
	"context"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/pool"
	"kbtim/internal/prop"
)

// TestDecodePartitionErrorReturnsPooledArrays is the regression test for
// the early-error pool leak kbtim-lint's poolpair analyzer flagged: a
// pooled decodePartition that died mid-decode used to abandon the block's
// four borrowed arrays (users, setIDs, lists, arena) instead of releasing
// them. The test corrupts one partition's payload so the decode fails
// after the pool gets, then asserts the pool's global get/put counters
// still balance.
func TestDecodePartitionErrorReturnsPooledArrays(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression:   codec.Delta,
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
