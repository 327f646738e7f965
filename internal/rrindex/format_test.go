package rrindex

import "testing"

func TestPrefixBytes(t *testing.T) {
	// 2500 sets, checkpoints at 1024, 2048, and the final end.
	d := &KeywordDir{
		ThetaW:      2500,
		SetsLen:     10000,
		Checkpoints: []int64{4000, 8000, 10000},
	}
	cases := []struct {
		t    int64
		want int64
	}{
		{1, 4000},     // inside first checkpoint block
		{1023, 4000},  // still first block
		{1024, 4000},  // exactly at the boundary: first checkpoint suffices
		{1025, 8000},  // spills into the second block
		{2048, 8000},  // exactly second boundary
		{2049, 10000}, // third block
		{2500, 10000}, // everything
		{9999, 10000}, // beyond θ_w clamps to the full region
	}
	for _, c := range cases {
		if got := d.prefixBytes(c.t); got != c.want {
			t.Errorf("prefixBytes(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestPrefixBytesSingleCheckpoint(t *testing.T) {
	// Fewer than checkpointInterval sets: one checkpoint at the end.
	d := &KeywordDir{ThetaW: 10, SetsLen: 123, Checkpoints: []int64{123}}
	for _, tt := range []int64{1, 5, 10, 100} {
		if got := d.prefixBytes(tt); got != 123 {
			t.Errorf("prefixBytes(%d) = %d, want 123", tt, got)
		}
	}
}

func TestHeaderRejectsBadModelName(t *testing.T) {
	h := &Header{ModelName: "", Compression: 1}
	if _, err := appendHeader(nil, h, 0); err == nil {
		t.Fatal("empty model name accepted")
	}
	h.ModelName = string(make([]byte, 300))
	if _, err := appendHeader(nil, h, 0); err == nil {
		t.Fatal("oversized model name accepted")
	}
}
