package irrindex

import (
	"bytes"
	"context"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
	"kbtim/internal/topic"
)

// TestRandomCorruptionNeverPanics flips random bytes throughout a valid
// index and asserts every Open/Query outcome is either a clean error or a
// well-formed result — never a panic. (Corruption in unread padding may
// legitimately go unnoticed; silent success on touched-but-compatible bytes
// is acceptable, crashing is not.)
func TestRandomCorruptionNeverPanics(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression:   codec.Delta,
		PartitionSize: 2,
	}); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	src := rng.New(99)
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
				return // clean rejection
			}
			res, err := idx.QueryCtx(context.Background(), q)
			if err != nil {
				return // clean rejection
			}
			// Whatever survived must still be structurally sane.
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

// TestTruncationSweepNeverPanics opens every prefix of a valid index.
func TestTruncationSweepNeverPanics(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	cfg := testConfig()
	cfg.MaxThetaPerKeyword = 200 // keep the file small enough to sweep
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{
		Compression:   codec.Delta,
		PartitionSize: 2,
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
