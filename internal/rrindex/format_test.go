package rrindex

import (
	"bytes"
	"testing"

	"kbtim/internal/prop"
)

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

// namedIC is IC under another name, which the header must carry.
type namedIC struct {
	prop.IC
	name string
}

func (m namedIC) Name() string { return m.name }

func TestHeaderRejectsBadModelName(t *testing.T) {
	for _, name := range []string{"", string(make([]byte, 300))} {
		var buf bytes.Buffer
		if _, err := Build(&buf, figure1(t), namedIC{name: name}, figure1Profiles(t), testConfig(), BuildOptions{}); err == nil {
			t.Fatalf("model name of %d bytes accepted", len(name))
		}
	}
}
