// Package rrindex implements the disk-based RR index of §4: per-keyword
// pre-sampled RR sets (R_w, drawn with the discriminative probability
// ps(v,w)) plus the vertex → RR-set-IDs inverted file (L_w), built offline
// by Algorithm 1 and consumed at query time by Algorithm 2.
//
// On-disk layout (single file, little-endian):
//
//	header:
//	  magic "KBRI" | version u32 | compression u8 | sizing u8 |
//	  modelNameLen u8 | modelName | numVertices u64 | numTopics u32 |
//	  K u32 | epsilon f64 | numKeywords u32
//	directory, one entry per indexed keyword:
//	  topicID u32 | thetaW u64 | tfSum f64 | phi f64 |
//	  setsOff u64 | setsLen u64 | invOff u64 | invLen u64 |
//	  numInvLists u32 | numCheckpoints u32 | checkpoints (u64 each)
//	payload:
//	  per keyword: sets region (thetaW encoded member lists back to back)
//	  followed by inverted region (numInvLists × [vertex uvarint,
//	  encoded RR-ID list]).
//
// Checkpoints record the byte end of every checkpointInterval-th RR set so
// a query can fetch the first θ^Q_w sets with one sequential segment read
// (over-reading at most one checkpoint's worth), without a per-set offset
// table.
package rrindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"kbtim/internal/binfmt"
	"kbtim/internal/codec"
	"kbtim/internal/indexfile"
	"kbtim/internal/wris"
)

const (
	indexMagic   = "KBRI"
	indexVersion = 1

	// checkpointInterval is the RR-set granularity of prefix loading.
	checkpointInterval = 1024
)

// ErrBadFormat reports a malformed or corrupt index file.
var ErrBadFormat = indexfile.ErrBadFormat

// Header is the index-wide metadata.
type Header struct {
	Compression codec.Compression
	Sizing      wris.SizingMode
	ModelName   string
	NumVertices int
	NumTopics   int
	K           int
	Epsilon     float64
}

// KeywordDir is one keyword's directory entry.
type KeywordDir struct {
	TopicID     int
	ThetaW      int64
	TFSum       float64
	Phi         float64
	SetsOff     int64
	SetsLen     int64
	InvOff      int64
	InvLen      int64
	NumInvLists int
	// Checkpoints[i] is the byte offset (within the sets region) just past
	// RR set number (i+1)·checkpointInterval; the final entry always equals
	// SetsLen.
	Checkpoints []int64
}

// prefixBytes returns how many bytes of the sets region must be read to
// decode the first t RR sets: Checkpoints[j-1] for j = ceil(t/interval),
// since Checkpoints[i] ends set (i+1)·interval.
func (d *KeywordDir) prefixBytes(t int64) int64 {
	if t >= d.ThetaW {
		return d.SetsLen
	}
	j := (t + checkpointInterval - 1) / checkpointInterval
	if j < 1 {
		j = 1
	}
	if j > int64(len(d.Checkpoints)) {
		return d.SetsLen
	}
	return d.Checkpoints[j-1]
}

func appendHeader(buf []byte, h *Header, numKeywords int) ([]byte, error) {
	if len(h.ModelName) == 0 || len(h.ModelName) > 255 {
		return nil, fmt.Errorf("rrindex: invalid model name %q", h.ModelName)
	}
	if !h.Compression.Valid() {
		return nil, fmt.Errorf("rrindex: invalid compression %d", h.Compression)
	}
	buf = append(buf, indexMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, indexVersion)
	// Prelude length (header + directory bytes); patched by the builder
	// once the directory size is known, read first by Open.
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = append(buf, byte(h.Compression), byte(h.Sizing), byte(len(h.ModelName)))
	buf = append(buf, h.ModelName...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.NumVertices))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.NumTopics))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.K))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Epsilon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(numKeywords))
	return buf, nil
}

// parseHeader reads the format's header from a reader positioned just past
// the prelude frame (indexfile.Open has checked magic and version).
func parseHeader(r *binfmt.Reader) (Header, int, error) {
	var h Header
	h.Compression = codec.Compression(r.U8())
	h.Sizing = wris.SizingMode(r.U8())
	h.ModelName = string(r.Bytes(int(r.U8())))
	h.NumVertices = int(r.U64())
	h.NumTopics = int(r.U32())
	h.K = int(r.U32())
	h.Epsilon = r.F64()
	numKeywords := int(r.U32())
	if err := r.Err(); err != nil {
		return h, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if !h.Compression.Valid() {
		return h, 0, fmt.Errorf("%w: unknown compression %d", ErrBadFormat, h.Compression)
	}
	if h.NumVertices < 0 || h.NumTopics <= 0 || numKeywords < 0 || numKeywords > h.NumTopics {
		return h, 0, fmt.Errorf("%w: implausible header", ErrBadFormat)
	}
	// A directory entry is at least dirEntryLen prelude bytes, so the bytes
	// present bound the keyword count before Open sizes its table by it.
	if numKeywords > r.Remaining()/dirEntryLen {
		return h, 0, fmt.Errorf("%w: implausible keyword count %d", ErrBadFormat, numKeywords)
	}
	return h, numKeywords, nil
}

// dirEntryLen is the fixed part of a keyword directory entry as
// appendKeywordDir writes it; the checkpoints follow it.
const dirEntryLen = 4 + 8*7 + 4 + 4

func appendKeywordDir(buf []byte, d *KeywordDir) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.TopicID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.ThetaW))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.TFSum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Phi))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.SetsOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.SetsLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.InvOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.InvLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.NumInvLists))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Checkpoints)))
	for _, c := range d.Checkpoints {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

func parseKeywordDir(r *binfmt.Reader, h *Header) (KeywordDir, error) {
	var d KeywordDir
	d.TopicID = int(r.U32())
	d.ThetaW = int64(r.U64())
	d.TFSum = r.F64()
	d.Phi = r.F64()
	d.SetsOff = int64(r.U64())
	d.SetsLen = int64(r.U64())
	d.InvOff = int64(r.U64())
	d.InvLen = int64(r.U64())
	d.NumInvLists = int(r.U32())
	numCk := int(r.U32())
	// A checkpoint is 8 prelude bytes, so the bytes present bound the count
	// (a truncated read leaves numCk 0 and surfaces through r.Err below).
	if numCk < 0 || numCk > r.Remaining()/8 {
		return d, fmt.Errorf("%w: implausible checkpoint count %d", ErrBadFormat, numCk)
	}
	d.Checkpoints = make([]int64, numCk)
	for i := range d.Checkpoints {
		d.Checkpoints[i] = int64(r.U64())
	}
	if err := r.Err(); err != nil {
		return d, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if d.TopicID < 0 || d.TopicID >= h.NumTopics || d.ThetaW <= 0 ||
		d.SetsLen < 0 || d.InvLen < 0 || d.NumInvLists < 0 || d.NumInvLists > h.NumVertices {
		return d, fmt.Errorf("%w: implausible directory for topic %d", ErrBadFormat, d.TopicID)
	}
	if n := len(d.Checkpoints); n == 0 || d.Checkpoints[n-1] != d.SetsLen {
		return d, fmt.Errorf("%w: checkpoint chain broken for topic %d", ErrBadFormat, d.TopicID)
	}
	// A set costs at least one byte, so the sets region bounds θ_w before a
	// query sizes its offset column by it.
	if d.ThetaW > d.SetsLen {
		return d, fmt.Errorf("%w: topic %d claims %d RR sets in %d bytes", ErrBadFormat, d.TopicID, d.ThetaW, d.SetsLen)
	}
	return d, nil
}
