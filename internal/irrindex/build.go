package irrindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"kbtim/internal/graph"
	"kbtim/internal/indexfile"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// BuildOptions configures IRR index construction (Algorithm 3): the options
// both kinds share, plus δ.
type BuildOptions struct {
	indexfile.BuildOptions
	// PartitionSize is δ, the number of inverted lists per partition
	// (the paper uses 100). 0 uses DefaultPartitionSize.
	PartitionSize int
}

// DefaultPartitionSize is the paper's δ = 100.
const DefaultPartitionSize = 100

// Build constructs the IRR index (Algorithm 3): per keyword it samples the
// same θ_w RR sets as the basic RR index, derives (IR, IL, IP), sorts the
// inverted lists by descending length, cuts them into δ-user partitions,
// and assigns each RR set to the first partition containing one of its
// members.
func Build(w io.Writer, g *graph.Graph, model prop.Model, prof *topic.Profiles, cfg wris.Config, opts BuildOptions) (*indexfile.BuildStats, error) {
	delta := opts.PartitionSize
	if delta == 0 {
		delta = DefaultPartitionSize
	}
	if delta < 0 {
		return nil, fmt.Errorf("irrindex: negative partition size")
	}
	return indexfile.Build(w, g, model, prof, cfg, opts.BuildOptions, indexfile.Format{
		Name:    "irrindex",
		Magic:   indexMagic,
		Version: indexVersion,
		Tail:    binary.LittleEndian.AppendUint32(nil, uint32(delta)),
		Encode: func(h *indexfile.Header, kw *indexfile.Sample) indexfile.Encoded {
			return encodeKeyword(h, kw, delta)
		},
	})
}

// encodeKeyword serializes one keyword's IP table and its δ-user partition
// blocks.
func encodeKeyword(h *indexfile.Header, kw *indexfile.Sample, delta int) indexfile.Encoded {
	batch := kw.Sets
	lists := batch.InvertedLists(h.NumVertices)

	// IP: first occurrence of each listed user (lists are ascending).
	var ip []byte
	numIP := 0
	for v, list := range lists {
		if len(list) == 0 {
			continue
		}
		numIP++
		ip = binary.AppendUvarint(ip, uint64(v))
		ip = binary.AppendUvarint(ip, uint64(list[0]))
	}

	// Sort listed users by descending list length, then ascending vertex.
	type row struct {
		v    uint32
		list []int32
	}
	rows := make([]row, 0, numIP)
	for v, list := range lists {
		if len(list) > 0 {
			rows = append(rows, row{v: uint32(v), list: list})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].list) != len(rows[j].list) {
			return len(rows[i].list) > len(rows[j].list)
		}
		return rows[i].v < rows[j].v
	})

	// partOf[v] = partition index of user v.
	numParts := (len(rows) + delta - 1) / delta
	partOf := make([]int32, h.NumVertices)
	for i := range partOf {
		partOf[i] = -1
	}
	for i, rw := range rows {
		partOf[rw.v] = int32(i / delta)
	}
	// Assign each RR set to the earliest partition among its members.
	setPart := make([]int32, batch.Len())
	for s := 0; s < batch.Len(); s++ {
		best := int32(numParts)
		for _, v := range batch.Set(s) {
			if p := partOf[v]; p >= 0 && p < best {
				best = p
			}
		}
		setPart[s] = best // == numParts only for empty sets (impossible)
	}
	setsByPart := make([][]int32, numParts)
	for s, p := range setPart {
		if int(p) < numParts {
			setsByPart[p] = append(setsByPart[p], int32(s))
		}
	}

	// Serialize partition blocks.
	d := &KeywordDir{
		TopicID:      kw.TopicID,
		ThetaW:       int64(batch.Len()),
		TFSum:        kw.TFSum,
		Phi:          kw.Phi,
		IPLen:        int64(len(ip)),
		NumIPEntries: numIP,
	}
	regions := [][]byte{ip}
	tmp := make([]uint32, 0, 64)
	for p := 0; p < numParts; p++ {
		lo, hi := p*delta, (p+1)*delta
		if hi > len(rows) {
			hi = len(rows)
		}
		var block []byte
		for _, rw := range rows[lo:hi] {
			block = binary.AppendUvarint(block, uint64(rw.v))
			tmp = tmp[:0]
			for _, id := range rw.list {
				tmp = append(tmp, uint32(id))
			}
			block = h.Compression.AppendList(block, tmp)
		}
		// IR part: the claimed set IDs as ONE compressed list (setsByPart
		// appends in ascending s order) and nothing else — Algorithm 4 here
		// never reads the member lists, so the file does not carry them.
		tmp = tmp[:0]
		for _, s := range setsByPart[p] {
			tmp = append(tmp, uint32(s))
		}
		block = h.Compression.AppendList(block, tmp)
		d.Partitions = append(d.Partitions, Partition{
			Len:         int64(len(block)),
			NumUsers:    hi - lo,
			NumSets:     len(setsByPart[p]),
			LastListLen: len(rows[hi-1].list),
		})
		regions = append(regions, block)
	}

	return indexfile.Encoded{
		Regions: regions,
		AppendDir: func(buf []byte, offs []int64) []byte {
			d.IPOff = offs[0]
			for j := range d.Partitions {
				d.Partitions[j].Off = offs[j+1]
			}
			return appendKeywordDir(buf, d)
		},
	}
}
