package rrindex

import (
	"bytes"
	"context"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/pool"
	"kbtim/internal/prop"
	"kbtim/internal/wris"
)

// TestDecodeSetsErrorReturnsPooledArrays is the regression test for the
// early-error pool leak kbtim-lint's poolpair analyzer flagged: a pooled
// decodeSets that died mid-decode used to abandon the batch's borrowed
// Flat/Off arrays instead of returning them. The test corrupts one
// keyword's sets region so the decode fails after the pool gets, then
// asserts the pool's global get/put counters still balance.
func TestDecodeSetsErrorReturnsPooledArrays(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression: codec.Delta,
		Sizing:      wris.SizeTheta,
	}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	// Locate the keyword's sets region via a pristine open, then 0xFF-fill
	// it: every varint byte now has its continuation bit set, so DecodeList
	// fails (and any member that did decode would be out of range). The
	// prelude is untouched, so reopening succeeds.
	idx, err := Open(diskio.NewMem(data, nil))
	if err != nil {
		t.Fatal(err)
	}
	d := idx.dirs[topicMusic]
	for i := d.SetsOff; i < d.SetsOff+d.SetsLen; i++ {
		data[i] = 0xFF
	}
	mem := diskio.NewMem(data, nil)
	idx, err = Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	d = idx.dirs[topicMusic]

	g0, p0 := pool.Counts()
	if _, err := idx.decodeSets(context.Background(), mem, d, int(d.ThetaW), true); err == nil {
		t.Fatal("decodeSets succeeded on a 0xFF-filled sets region; corruption setup is broken")
	}
	g1, p1 := pool.Counts()
	if g1-g0 != p1-p0 {
		t.Fatalf("decodeSets error path leaked pooled slices: %d gets vs %d puts", g1-g0, p1-p0)
	}
}
