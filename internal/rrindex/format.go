// Package rrindex implements the disk-based RR index of §4: per-keyword
// pre-sampled RR sets (R_w, drawn with the discriminative probability
// ps(v,w)) plus the vertex → RR-set-IDs inverted file (L_w), built offline
// by Algorithm 1 and consumed at query time by Algorithm 2.
//
// On-disk layout (single file, little-endian):
//
//	header (indexfile.Header, no tail):
//	  magic "KBRI" | version u32 | preludeLen u64 | compression u8 |
//	  sizing u8 | modelNameLen u8 | modelName | numVertices u64 |
//	  numTopics u32 | K u32 | epsilon f64 | numKeywords u32
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
	"kbtim/internal/indexfile"
)

const (
	indexMagic   = "KBRI"
	indexVersion = 1

	// checkpointInterval is the RR-set granularity of prefix loading.
	checkpointInterval = 1024
)

// ErrBadFormat reports a malformed or corrupt index file.
var ErrBadFormat = indexfile.ErrBadFormat

// Header is the index-wide metadata; the RR index adds no field to the
// shared header.
type Header = indexfile.Header

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
