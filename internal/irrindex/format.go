// Package irrindex implements the Incremental RR index of §5: per keyword,
// the inverted lists are sorted by length (most-covered users first) and cut
// into fixed-size partitions; each partition block also names the RR sets
// first "claimed" by that partition, and a first-occurrence table (IP)
// resolves whether an unseen user can still contribute (Algorithm 3). Query
// processing is an NRA-style top-k aggregation with lazy upper-bound
// refinement (Algorithm 4), loading partitions only until the next seed is
// provably the best remaining candidate — the source of the "load far fewer
// RR sets" effect of Figures 5–7 (at the price of random I/O, Table 6).
//
// On-disk layout (single file, little-endian):
//
//	header (indexfile.Header, tail partitionSize):
//	  magic "KBII" | version u32 | preludeLen u64 | compression u8 |
//	  sizing u8 | modelNameLen u8 | modelName | numVertices u64 |
//	  numTopics u32 | K u32 | epsilon f64 | partitionSize u32 |
//	  numKeywords u32
//	directory, one entry per keyword:
//	  topicID u32 | thetaW u64 | tfSum f64 | phi f64 |
//	  ipOff u64 | ipLen u64 | numIPEntries u32 | numPartitions u32 |
//	  per partition: off u64 | len u64 | numUsers u32 | numSets u32 |
//	                 lastListLen u32
//	payload:
//	  per keyword: IP region (numIPEntries × [vertex uvarint, firstOcc
//	  uvarint], vertices strictly ascending), then partition blocks. A
//	  partition block is
//	  IL part: numUsers × [vertex uvarint, encoded RR-ID list] followed by
//	  the encoded list of the numSets claimed rrIDs (ascending) — and
//	  nothing else; a byte behind that list is ErrBadFormat.
//
// Departure from Algorithm 3: the paper's IR part also stores each claimed
// set's MEMBERS. Algorithm 4 as implemented here never reads them — scores
// are refreshed lazily from the covered[] marks and the IL lists — so it
// needs only the claimed IDs (they keep Loaded/NumRRSets exact: a keyword's
// partitions claim every ID in [0, θ_w) exactly once), and the file does not
// carry the member lists.
//
// Version history: v1 interleaved the IR part as numSets × [rrID uvarint,
// encoded member list], which forced queries to varint-scan every member
// list just to step over it. v2 fronted the claimed IDs and put the member
// lists behind a byte-length prefix, so decode stopped cold after one list —
// but every cold query still read, byte-cached and (behind a router) shipped
// the member bytes, 43 % of the file and 83 % of a keyword's first
// partition. v3 drops them. There is one read path: Open rejects any other
// version and names the rebuild command.
//
// lastListLen is the length of the partition's shortest (last) inverted
// list: after loading partition p the NRA bound kb[w] for unseen users is
// exactly that value (lists are globally sorted by descending length).
package irrindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"kbtim/internal/binfmt"
	"kbtim/internal/indexfile"
)

const (
	indexMagic   = "KBII"
	indexVersion = 3
)

// ErrBadFormat reports a malformed or corrupt index file.
var ErrBadFormat = indexfile.ErrBadFormat

// Header is the index-wide metadata: the shared header plus δ, its tail.
type Header struct {
	indexfile.Header
	PartitionSize int // δ of Algorithm 3
}

// Partition locates one partition block.
type Partition struct {
	Off         int64
	Len         int64
	NumUsers    int
	NumSets     int
	LastListLen int // length of the shortest inverted list in the block
}

// KeywordDir is one keyword's directory entry.
type KeywordDir struct {
	TopicID      int
	ThetaW       int64
	TFSum        float64
	Phi          float64
	IPOff        int64
	IPLen        int64
	NumIPEntries int
	Partitions   []Partition
}

// dirEntryLen is the fixed part of a keyword directory entry as
// appendKeywordDir writes it; the partition entries follow it.
const dirEntryLen = 4 + 8*5 + 4 + 4

func appendKeywordDir(buf []byte, d *KeywordDir) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.TopicID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.ThetaW))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.TFSum))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Phi))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.IPOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.IPLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.NumIPEntries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Partitions)))
	for _, p := range d.Partitions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Off))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Len))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumUsers))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumSets))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.LastListLen))
	}
	return buf
}

func parseKeywordDir(r *binfmt.Reader, h *Header) (KeywordDir, error) {
	var d KeywordDir
	d.TopicID = int(r.U32())
	d.ThetaW = int64(r.U64())
	d.TFSum = r.F64()
	d.Phi = r.F64()
	d.IPOff = int64(r.U64())
	d.IPLen = int64(r.U64())
	d.NumIPEntries = int(r.U32())
	numParts := int(r.U32())
	// A partition entry is 28 prelude bytes, so the bytes present bound the
	// count (a truncated read leaves numParts 0 and surfaces through r.Err
	// below).
	if numParts < 0 || numParts > r.Remaining()/28 {
		return d, fmt.Errorf("%w: implausible partition count %d", ErrBadFormat, numParts)
	}
	d.Partitions = make([]Partition, numParts)
	for i := range d.Partitions {
		d.Partitions[i] = Partition{
			Off:         int64(r.U64()),
			Len:         int64(r.U64()),
			NumUsers:    int(r.U32()),
			NumSets:     int(r.U32()),
			LastListLen: int(r.U32()),
		}
	}
	if err := r.Err(); err != nil {
		return d, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if d.TopicID < 0 || d.TopicID >= h.NumTopics || d.ThetaW <= 0 ||
		d.NumIPEntries < 0 || d.NumIPEntries > h.NumVertices {
		return d, fmt.Errorf("%w: implausible directory for topic %d", ErrBadFormat, d.TopicID)
	}
	// Every RR set is claimed by exactly one partition, and a claimed ID
	// costs at least one byte, so the partitions' bytes bound θ_w before a
	// query sizes anything by it.
	var sets int64
	for _, p := range d.Partitions {
		if int64(p.NumSets) > p.Len {
			return d, fmt.Errorf("%w: partition of topic %d claims %d sets in %d bytes", ErrBadFormat, d.TopicID, p.NumSets, p.Len)
		}
		sets += int64(p.NumSets)
	}
	if sets != d.ThetaW {
		return d, fmt.Errorf("%w: topic %d claims %d RR sets, its partitions %d", ErrBadFormat, d.TopicID, d.ThetaW, sets)
	}
	return d, nil
}
