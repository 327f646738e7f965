package irrindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/pool"
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
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
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
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
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

// uvarints concatenates its arguments as uvarints.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestHostileIPTable: the flat IP decoder accepts only what Build writes —
// strictly ascending vertices below NumVertices, first occurrences below θ_w,
// exactly NumIPEntries entries filling the region — and sizes its columns
// from the region's bytes, never from an unchecked directory count.
func TestHostileIPTable(t *testing.T) {
	const theta = 10
	idx := bareIndex(codec.Delta, 7)
	good := uvarints(0, 3, 2, 0, 5, 9)
	ip, err := decodeBareIP(idx, good, 3, theta)
	if err != nil || !reflect.DeepEqual(ip, ipTable{users: []uint32{0, 2, 5}, first: []int32{3, 0, 9}}) {
		t.Fatalf("valid table: %+v, %v", ip, err)
	}
	for _, tc := range []struct {
		name      string
		region    []byte
		entries   int
		badFormat bool // the error must be ErrBadFormat itself, not a reader's
	}{
		{"descending vertex", uvarints(2, 0, 1, 0), 2, true},
		{"duplicate vertex", uvarints(2, 0, 2, 1), 2, true},
		{"vertex == NumVertices", uvarints(0, 3, 7, 0), 2, true},
		{"first occurrence == θ_w", uvarints(0, 3, 1, theta), 2, true},
		{"trailing byte", append(append([]byte(nil), good...), 0), 3, true},
		{"one entry more than the directory says", good, 2, true},
		{"one entry fewer than the directory says", good, 4, false},
		{"truncated mid-entry", good[:5], 3, false},
		{"directory count beyond the region's bytes", good, 1 << 30, true},
		{"vertex varint overflows", append(bytes.Repeat([]byte{0xFF}, 10), 0x01, 0x00), 1, false},
	} {
		ip, err := decodeBareIP(idx, tc.region, tc.entries, theta)
		if err == nil || ip.users != nil || ip.first != nil {
			t.Errorf("%s: accepted (%+v, %v)", tc.name, ip, err)
		} else if tc.badFormat && !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %v is not ErrBadFormat", tc.name, err)
		}
	}
}

// TestHostilePartitionBlock: a v3 block is the IL part, the claimed-ID list,
// and nothing else; both directory counts are checked against the block's
// bytes before anything is sized by them; every rejection returns the pooled
// arrays.
func TestHostilePartitionBlock(t *testing.T) {
	const theta = 10
	idx := bareIndex(codec.Delta, 7)
	il := func(v uint64, ids ...uint32) []byte {
		return codec.AppendUint32List(uvarints(v), ids)
	}
	ilPart := append(il(1, 0, 2, 5), il(4, 1)...)
	claimed := func(ids ...uint32) []byte {
		return codec.AppendUint32List(append([]byte(nil), ilPart...), ids)
	}
	good := claimed(0, 1)
	blk, err := decodeBareBlock(idx, good, 2, 2, theta, theta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blk.users, []uint32{1, 4}) || !reflect.DeepEqual(blk.setIDs, []uint32{0, 1}) ||
		!reflect.DeepEqual(blk.lists, [][]int32{{0, 2, 5}, {1}}) || !reflect.DeepEqual(blk.arena, []int32{0, 2, 5, 1}) {
		t.Fatalf("valid block decoded to %+v", blk)
	}
	blk.release()

	// What format v2 put behind the claimed IDs: a byte-length prefix and
	// one member list per claimed set.
	members := codec.AppendUint32List(codec.AppendUint32List(nil, []uint32{1, 3}), []uint32{4})
	v2 := append(append(append([]byte(nil), good...), uvarints(uint64(len(members)))...), members...)

	g0, p0 := pool.Counts()
	for _, tc := range []struct {
		name        string
		block       []byte
		users, sets int
		badFormat   bool
	}{
		{"byte after the claimed IDs", append(append([]byte(nil), good...), 0), 2, 2, true},
		{"v2 block (member lists follow)", v2, 2, 2, true},
		{"directory says one set more", good, 2, 3, true},
		{"directory says one set fewer", good, 2, 1, true},
		{"claimed ID == θ_w", claimed(0, theta), 2, 2, true},
		{"user == NumVertices", codec.AppendUint32List(il(7, 0), []uint32{0}), 1, 1, true},
		{"directory says one user more", good, 3, 2, false},
		{"directory says one user fewer", good, 1, 2, false},
		{"user count beyond the block's bytes", good, 1 << 31, 2, true},
		{"set count beyond the block's bytes", good, 2, 1 << 31, true},
		{"truncated in the claimed IDs", good[:len(good)-1], 2, 2, false},
		{"empty", nil, 1, 0, true},
	} {
		blk, err := decodeBareBlock(idx, tc.block, tc.users, tc.sets, theta, theta)
		if err == nil || blk != nil {
			t.Errorf("%s: accepted (%+v, %v)", tc.name, blk, err)
		} else if tc.badFormat && !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %v is not ErrBadFormat", tc.name, err)
		}
	}
	if g1, p1 := pool.Counts(); g1-g0 != p1-p0 {
		t.Fatalf("rejected blocks leaked pooled slices: %d gets vs %d puts", g1-g0, p1-p0)
	}

	// A list ID at or past the decode limit is a trimmed tail, not an error,
	// and the kept prefixes stay back to back in the arena.
	blk, err = decodeBareBlock(idx, good, 2, 2, theta, 2)
	if err != nil || !reflect.DeepEqual(blk.lists, [][]int32{{0}, {1}}) || !reflect.DeepEqual(blk.arena, []int32{0, 1}) {
		t.Fatalf("limit 2: %+v, %v", blk, err)
	}
	blk.release()
}
