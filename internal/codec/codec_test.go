package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kbtim/internal/rng"
)

// refDecodeDelta is the element-at-a-time decoder the bulk kernel replaced,
// kept as the oracle FuzzDecodeList compares against: one binary.Uvarint and
// one append per element, every rejection spelled out. One departure from the
// replaced code, found by the fuzzer: it tested uint64(prev)+gap > 2³²−1,
// which a gap near 2⁶⁴ wraps past, and so accepted a descending list (corpus
// entry delta-gap-wraps-uint64); the range test below cannot wrap.
func refDecodeDelta(out []uint32, buf []byte) ([]uint32, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 || count > uint64(len(buf)) { // each element needs ≥1 byte
		return out, 0, ErrCorrupt
	}
	pos := n
	if count == 0 {
		return out, pos, nil
	}
	first, n := binary.Uvarint(buf[pos:])
	if n <= 0 || first > 1<<32-1 {
		return out, 0, ErrCorrupt
	}
	pos += n
	out = append(out, uint32(first))
	prev := uint32(first)
	for i := uint64(1); i < count; i++ {
		gap, n := binary.Uvarint(buf[pos:])
		if n <= 0 || gap == 0 || gap > 1<<32-1-uint64(prev) {
			return out, 0, ErrCorrupt
		}
		pos += n
		prev += uint32(gap)
		out = append(out, prev)
	}
	return out, pos, nil
}

// refDecodeRaw is the fixed-width counterpart of refDecodeDelta.
func refDecodeRaw(out []uint32, buf []byte) ([]uint32, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 || count > uint64(len(buf))/4 || uint64(len(buf)-n) < count*4 {
		return out, 0, ErrCorrupt
	}
	pos := n
	for i := uint64(0); i < count; i++ {
		out = append(out, binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	}
	return out, pos, nil
}

// FuzzDecodeList holds the bulk kernels to the reference decoders on
// arbitrary bytes, for both compressions and both destination types: same
// values, same bytes consumed, same error-vs-nil; out's prior contents
// survive; an error leaves out at its old length; nothing beyond len(buf) is
// touched (buf sits capacity-clipped inside a poisoned array, so an over-read
// panics); and the destination never grows by more than the bytes on hand
// could encode — a hostile count costs an error, not an allocation.
func FuzzDecodeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		c, ref := Delta, refDecodeDelta
		if raw {
			c, ref = Raw, refDecodeRaw
		}
		arena := append(append([]byte{}, data...), bytes.Repeat([]byte{0x81}, 16)...)
		buf := arena[:len(data):len(data)]
		prior := []uint32{7, 0, 1<<32 - 1}

		want, wantN, wantErr := ref(append([]uint32{}, prior...), buf)
		got, n, err := c.DecodeList(append([]uint32{}, prior...), buf)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: kernel err %v, reference err %v", c, err, wantErr)
		}
		if !reflect.DeepEqual(got[:len(prior)], prior) {
			t.Fatalf("%s: prior contents clobbered: %v", c, got[:len(prior)])
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || n != 0 || len(got) != len(prior) {
				t.Fatalf("%s: error path returned (len %d, n %d, %v)", c, len(got), n, err)
			}
		} else if n != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: kernel (%v, %d) vs reference (%v, %d)", c, got, n, want, wantN)
		}
		if len(got)-len(prior) > len(buf) {
			t.Fatalf("%s: grew by %d elements from %d bytes", c, len(got)-len(prior), len(buf))
		}
		// From nil the one growth is the whole allocation: size-class
		// rounding aside, it is bounded by the bytes on hand.
		fresh, _, _ := c.DecodeList(nil, buf)
		if cap(fresh) > 2*len(buf)+4 {
			t.Fatalf("%s: %d bytes allocated %d elements", c, len(buf), cap(fresh))
		}
		signed, sn, serr := c.DecodeInt32List(nil, buf)
		if (serr == nil) != (err == nil) || sn != n || len(signed) != len(fresh) {
			t.Fatalf("%s: int32 kernel (len %d, n %d, %v) vs uint32 (len %d, n %d, %v)", c, len(signed), sn, serr, len(fresh), n, err)
		}
		for i, v := range signed {
			if uint32(v) != fresh[i] {
				t.Fatalf("%s: int32 element %d = %d, uint32 = %d", c, i, v, fresh[i])
			}
		}
	})
}

func TestRoundTripSimple(t *testing.T) {
	lists := [][]uint32{
		{},
		{0},
		{5},
		{0, 1, 2, 3},
		{10, 100, 1000, 1 << 30},
		{4294967294, 4294967295},
	}
	for _, list := range lists {
		for _, c := range []Compression{Raw, Delta} {
			buf := c.AppendList(nil, list)
			out, n, err := c.DecodeList(nil, buf)
			if err != nil {
				t.Fatalf("%s %v: %v", c, list, err)
			}
			if n != len(buf) {
				t.Fatalf("%s %v: consumed %d of %d bytes", c, list, n, len(buf))
			}
			if len(list) == 0 {
				if len(out) != 0 {
					t.Fatalf("%s: empty list decoded to %v", c, out)
				}
				continue
			}
			if !reflect.DeepEqual(out, list) {
				t.Fatalf("%s: round trip %v → %v", c, list, out)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		// Dedup + sort to satisfy Delta's precondition.
		seen := map[uint32]bool{}
		var list []uint32
		for _, v := range raw {
			if !seen[v] {
				seen[v] = true
				list = append(list, v)
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		for _, c := range []Compression{Raw, Delta} {
			buf := c.AppendList(nil, list)
			out, n, err := c.DecodeList(nil, buf)
			if err != nil || n != len(buf) {
				return false
			}
			if len(list) != len(out) {
				return false
			}
			for i := range list {
				if list[i] != out[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatenatedLists(t *testing.T) {
	a := []uint32{1, 5, 9}
	b := []uint32{2, 3}
	buf := AppendUint32List(nil, a)
	buf = AppendUint32List(buf, b)
	outA, n, err := DecodeUint32List(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	outB, n2, err := DecodeUint32List(nil, buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+n2 != len(buf) {
		t.Fatalf("consumed %d+%d of %d", n, n2, len(buf))
	}
	if !reflect.DeepEqual(outA, a) || !reflect.DeepEqual(outB, b) {
		t.Fatalf("concat decode: %v %v", outA, outB)
	}
}

func TestDeltaPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted input accepted")
		}
	}()
	AppendUint32List(nil, []uint32{3, 1})
}

func TestDeltaPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate input accepted")
		}
	}()
	AppendUint32List(nil, []uint32{1, 1})
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := AppendUint32List(nil, []uint32{10, 20, 30})
	cases := map[string][]byte{
		"empty":           {},
		"truncated":       good[:len(good)-1],
		"huge count":      {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"zero gap stream": {2, 5, 0}, // gap of 0 is illegal
		// prev + gap wraps uint64 back under 2³²: would decode to 47 after 48.
		"gap wraps uint64": {2, 48, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, buf := range cases {
		if _, _, err := DecodeUint32List(nil, buf); err == nil {
			t.Errorf("delta: %s accepted", name)
		}
	}
	rawGood := AppendRawUint32List(nil, []uint32{10, 20})
	if _, _, err := DecodeRawUint32List(nil, rawGood[:len(rawGood)-2]); err == nil {
		t.Error("raw: truncated accepted")
	}
	if _, _, err := DecodeRawUint32List(nil, nil); err == nil {
		t.Error("raw: empty accepted")
	}
}

func TestDecodeAppendsToExisting(t *testing.T) {
	buf := AppendUint32List(nil, []uint32{7, 8})
	out := []uint32{1, 2}
	out, _, err := DecodeUint32List(out, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []uint32{1, 2, 7, 8}) {
		t.Fatalf("append decode = %v", out)
	}
}

func TestCompressionRatioOnTypicalGaps(t *testing.T) {
	// Inverted lists have small gaps; delta should beat raw clearly
	// (the Table 4 effect).
	src := rng.New(3)
	list := make([]uint32, 0, 10000)
	cur := uint32(0)
	for i := 0; i < 10000; i++ {
		cur += uint32(src.Intn(20) + 1)
		list = append(list, cur)
	}
	raw := AppendRawUint32List(nil, list)
	delta := AppendUint32List(nil, list)
	ratio := float64(len(delta)) / float64(len(raw))
	if ratio > 0.6 {
		t.Fatalf("delta/raw = %v, expected ≤0.6 on small-gap data", ratio)
	}
}

func TestCompressionEnum(t *testing.T) {
	if !Raw.Valid() || !Delta.Valid() || Compression(9).Valid() {
		t.Fatal("Valid() broken")
	}
	if Raw.String() != "raw" || Delta.String() != "delta-varint" {
		t.Fatal("String() broken")
	}
	if Compression(9).String() == "" {
		t.Fatal("unknown String() empty")
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	src := rng.New(1)
	list := make([]uint32, 0, 4096)
	cur := uint32(0)
	for i := 0; i < 4096; i++ {
		cur += uint32(src.Intn(30) + 1)
		list = append(list, cur)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendUint32List(buf[:0], list)
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	src := rng.New(1)
	list := make([]uint32, 0, 4096)
	cur := uint32(0)
	for i := 0; i < 4096; i++ {
		cur += uint32(src.Intn(30) + 1)
		list = append(list, cur)
	}
	buf := AppendUint32List(nil, list)
	var out []uint32
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = DecodeUint32List(out[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
