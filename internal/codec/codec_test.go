package codec

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kbtim/internal/rng"
)

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = DecodeUint32List(out[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
