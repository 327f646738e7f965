package rrindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/pool"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// TestRandomCorruptionNeverPanics mirrors the IRR corruption sweep for the
// RR index: arbitrary byte flips must produce clean errors or sane results,
// never a crash.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression: codec.Delta,
		Sizing:      wris.SizeTheta,
	}); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	src := rng.New(123)
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}

	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), pristine...)
		flips := src.Intn(4) + 1
		for i := 0; i < flips; i++ {
			pos := src.Intn(len(data))
			data[pos] ^= byte(src.Intn(255) + 1)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			idx, err := Open(diskio.NewMem(data, nil))
			if err != nil {
				return
			}
			res, err := idx.QueryCtx(context.Background(), q)
			if err != nil {
				return
			}
			if len(res.Seeds) == 0 || len(res.Seeds) > 2 {
				t.Fatalf("trial %d: corrupt index returned %d seeds", trial, len(res.Seeds))
			}
			for _, s := range res.Seeds {
				if int(s) >= g.NumVertices() {
					t.Fatalf("trial %d: seed %d out of range", trial, s)
				}
			}
		}()
	}
}

// TestRawSetOrderCheckedAtDecode: a Raw set is fixed-width, so nothing in its
// encoding orders its members. A repeated member, a descending pair, or a
// member equal to NumVertices in an otherwise valid file must fail the decode
// with ErrBadFormat, with every pooled array returned, instead of reaching the
// solver.
func TestRawSetOrderCheckedAtDecode(t *testing.T) {
	pristine, _ := figure1Bytes(t, codec.Raw, wris.SizeTheta)
	idx, err := Open(diskio.NewMem(pristine, nil))
	if err != nil {
		t.Fatal(err)
	}
	// The first set of keyword Music with two or more members: its count
	// varint, then 4 little-endian bytes per member.
	d := idx.Dir(topicMusic)
	at, end, n := d.SetsOff, d.SetsOff+d.SetsLen, uint64(0)
	for {
		var w int
		if at < end {
			n, w = binary.Uvarint(pristine[at:end])
		}
		if w <= 0 {
			t.Fatal("no set with two members in keyword Music's sets region")
		}
		at += int64(w)
		if n >= 2 {
			break
		}
		at += 4 * int64(n)
	}
	member := func(data []byte, i int) []byte { return data[at+4*int64(i) : at+4*int64(i+1)] }
	for _, c := range []struct {
		name   string
		mutate func(data []byte)
	}{
		{"repeated member", func(data []byte) { copy(member(data, 1), member(data, 0)) }},
		{"descending pair", func(data []byte) {
			a, b := binary.LittleEndian.Uint32(member(data, 0)), binary.LittleEndian.Uint32(member(data, 1))
			binary.LittleEndian.PutUint32(member(data, 0), b)
			binary.LittleEndian.PutUint32(member(data, 1), a)
		}},
		{"member equal to NumVertices", func(data []byte) {
			binary.LittleEndian.PutUint32(member(data, int(n)-1), uint32(idx.Header().NumVertices))
		}},
	} {
		data := append([]byte(nil), pristine...)
		c.mutate(data)
		mem := diskio.NewMem(data, nil)
		bad, err := Open(mem)
		if err != nil {
			t.Fatalf("%s: the prelude is untouched, yet Open failed: %v", c.name, err)
		}
		for _, pooled := range []bool{true, false} {
			g0, p0 := pool.Counts()
			_, err := bad.decodeSets(context.Background(), mem, bad.Dir(topicMusic), int(d.ThetaW), pooled)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s (pooled %v): decode gave %v, want ErrBadFormat", c.name, pooled, err)
			}
			if g1, p1 := pool.Counts(); g1-g0 != p1-p0 {
				t.Errorf("%s (pooled %v): %d pooled gets, %d puts", c.name, pooled, g1-g0, p1-p0)
			}
		}
	}
}

// TestTruncationSweepNeverPanics opens every prefix of a valid index.
func TestTruncationSweepNeverPanics(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	cfg := testConfig()
	cfg.MaxThetaPerKeyword = 200
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{
		Compression: codec.Delta,
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	step := len(data)/200 + 1
	for n := 0; n < len(data); n += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d panicked: %v", n, r)
				}
			}()
			idx, err := Open(diskio.NewMem(data[:n], nil))
			if err != nil {
				return
			}
			_, _ = idx.QueryCtx(context.Background(), topic.Query{Topics: []int{topicMusic}, K: 1})
		}()
	}
}
