// Package codec compresses the sorted integer lists that dominate both disk
// indexes: RR-set member lists and per-vertex inverted lists of RR-set IDs.
// The paper applies FastPFOR (as shipped in Lucene 4.6) and reports ≈40–50%
// space savings at negligible build-time cost (§6.2, Table 4); FastPFOR is
// not available to a stdlib-only build, so codec implements the same role
// with delta + LEB128 varint encoding, which achieves comparable ratios on
// the same data shapes (small sorted-gap distributions).
//
// Wire format of an encoded list:
//
//	varint(count) | varint(first) | varint(gap_1) | ... | varint(gap_{count-1})
//
// Gaps are strictly relative to the previous element; because lists are
// sorted and duplicate-free, every gap ≥ 1, and a decoded gap of 0 marks a
// corrupt stream.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrCorrupt reports an undecodable or internally inconsistent stream.
var ErrCorrupt = errors.New("codec: corrupt stream")

// AppendUint32List encodes the sorted, duplicate-free list and appends the
// bytes to dst. It panics if the list is not strictly ascending, because an
// unsorted list would silently decode to garbage.
func AppendUint32List(dst []byte, list []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	if len(list) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(list[0]))
	prev := list[0]
	for _, v := range list[1:] {
		if v <= prev {
			panic(fmt.Sprintf("codec: list not strictly ascending (%d after %d)", v, prev))
		}
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst
}

// elem is what the decode kernels write: uint32 for RR-set members and set
// IDs, int32 for the per-user ID lists the IRR query tables hold (same 32
// bits, the caller's signedness).
type elem interface{ uint32 | int32 }

// listHeader reads a list's count prefix and sizes out for it: the count is
// checked against the bytes left (perElem is the least an element can take)
// BEFORE out grows, so a hostile count costs an error, never an allocation.
// It returns out extended by count elements, the old length, and the bytes
// the prefix took.
func listHeader[T elem](out []T, buf []byte, perElem int) (_ []T, base, pos int, err error) {
	var count uint64
	if len(buf) > 0 && buf[0] < 0x80 {
		count, pos = uint64(buf[0]), 1
	} else if count, pos = binary.Uvarint(buf); pos <= 0 {
		return out, 0, 0, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	if count > uint64((len(buf)-pos)/perElem) {
		return out, 0, 0, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, count)
	}
	base = len(out)
	return slices.Grow(out, int(count))[:base+int(count)], base, pos, nil
}

// decodeDelta is the delta-varint kernel: one growth of out, then a tight
// loop whose one- and two-byte varints (every gap below 16 384, i.e. nearly
// all of them) never leave it; binary.Uvarint handles the long tail. The
// first element is the gap from zero and the only one allowed to be zero.
// On error out comes back at its original length.
func decodeDelta[T elem](out []T, buf []byte) ([]T, int, error) {
	out, base, pos, err := listHeader(out, buf, 1)
	if err != nil {
		return out, 0, err
	}
	dst := out[base:]
	prev := uint32(0)
	for i := range dst {
		if pos >= len(buf) {
			return out[:base], 0, fmt.Errorf("%w: truncated at element %d", ErrCorrupt, i)
		}
		gap := uint32(buf[pos])
		switch {
		case gap < 0x80:
			pos++
		case pos+1 < len(buf) && buf[pos+1] < 0x80:
			gap = gap&0x7f | uint32(buf[pos+1])<<7
			pos += 2
		default:
			g, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return out[:base], 0, fmt.Errorf("%w: truncated at element %d", ErrCorrupt, i)
			}
			if g > math.MaxUint32 {
				return out[:base], 0, fmt.Errorf("%w: element %d out of range", ErrCorrupt, i)
			}
			gap = uint32(g)
			pos += n
		}
		next := prev + gap
		if i > 0 && next <= prev { // zero gap, or the sum wrapped past 2³²−1
			return out[:base], 0, fmt.Errorf("%w: invalid gap %d at element %d", ErrCorrupt, gap, i)
		}
		prev = next
		dst[i] = T(next)
	}
	return out, pos, nil
}

// decodeRaw is the fixed-width kernel.
func decodeRaw[T elem](out []T, buf []byte) ([]T, int, error) {
	out, base, pos, err := listHeader(out, buf, 4)
	if err != nil {
		return out, 0, err
	}
	dst := out[base:]
	for i := range dst {
		dst[i] = T(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	}
	return out, pos, nil
}

// DecodeUint32List decodes one list from buf, appending members to out.
// It returns the extended slice and the number of bytes consumed.
func DecodeUint32List(out []uint32, buf []byte) ([]uint32, int, error) {
	return decodeDelta(out, buf)
}

// AppendRawUint32List encodes the list without compression (count +
// fixed-width little-endian elements). The "uncompressed" configuration of
// Table 4.
func AppendRawUint32List(dst []byte, list []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, v := range list {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// DecodeRawUint32List decodes one raw list from buf.
func DecodeRawUint32List(out []uint32, buf []byte) ([]uint32, int, error) {
	return decodeRaw(out, buf)
}

// Compression selects the list encoding used by an index file.
type Compression uint8

// Supported compressions.
const (
	Raw   Compression = 0 // fixed-width, the "uncompressed" rows of Table 4
	Delta Compression = 1 // delta+varint, the "compressed" rows of Table 4
)

// Valid reports whether c is a known compression.
func (c Compression) Valid() bool { return c == Raw || c == Delta }

// String names the compression for reports.
func (c Compression) String() string {
	switch c {
	case Raw:
		return "raw"
	case Delta:
		return "delta-varint"
	default:
		return fmt.Sprintf("compression(%d)", uint8(c))
	}
}

// AppendList dispatches on c. Delta requires strictly ascending input; Raw
// accepts any order.
func (c Compression) AppendList(dst []byte, list []uint32) []byte {
	if c == Delta {
		return AppendUint32List(dst, list)
	}
	return AppendRawUint32List(dst, list)
}

// DecodeList dispatches on c.
func (c Compression) DecodeList(out []uint32, buf []byte) ([]uint32, int, error) {
	if c == Delta {
		return decodeDelta(out, buf)
	}
	return decodeRaw(out, buf)
}

// DecodeInt32List is DecodeList into a signed destination (the same kernels;
// an element above 2³¹−1 lands negative, so range checks compare unsigned).
func (c Compression) DecodeInt32List(out []int32, buf []byte) ([]int32, int, error) {
	if c == Delta {
		return decodeDelta(out, buf)
	}
	return decodeRaw(out, buf)
}
