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

// DecodeUint32List decodes one list from buf, appending members to out.
// It returns the extended slice and the number of bytes consumed.
func DecodeUint32List(out []uint32, buf []byte) ([]uint32, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return out, 0, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	if count > uint64(len(buf)) { // each element needs ≥1 byte
		return out, 0, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, count)
	}
	pos := n
	if count == 0 {
		return out, pos, nil
	}
	first, n := binary.Uvarint(buf[pos:])
	if n <= 0 || first > 1<<32-1 {
		return out, 0, fmt.Errorf("%w: bad first element", ErrCorrupt)
	}
	pos += n
	out = append(out, uint32(first))
	prev := uint32(first)
	for i := uint64(1); i < count; i++ {
		gap, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return out, 0, fmt.Errorf("%w: truncated at element %d", ErrCorrupt, i)
		}
		if gap == 0 || uint64(prev)+gap > 1<<32-1 {
			return out, 0, fmt.Errorf("%w: invalid gap %d", ErrCorrupt, gap)
		}
		pos += n
		prev += uint32(gap)
		out = append(out, prev)
	}
	return out, pos, nil
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
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return out, 0, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	if count > uint64(len(buf))/4 { // also guards the count*4 overflow below
		return out, 0, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, count)
	}
	pos := n
	need := count * 4
	if uint64(len(buf)-pos) < need {
		return out, 0, fmt.Errorf("%w: raw list truncated", ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		out = append(out, binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
	}
	return out, pos, nil
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
		return DecodeUint32List(out, buf)
	}
	return DecodeRawUint32List(out, buf)
}
