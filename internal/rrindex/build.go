package rrindex

import (
	"encoding/binary"
	"io"

	"kbtim/internal/graph"
	"kbtim/internal/indexfile"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// BuildOptions configures an RR index build: the options both kinds share.
type BuildOptions = indexfile.BuildOptions

// Build constructs the RR index for the given graph, model, and profiles,
// writing the single-file index to w. It implements Algorithm 1: for each
// keyword, plan θ_w (Lemma 3 or 4 via a pilot OPT estimate), sample θ_w RR
// sets with root probability ps(v,w), invert them, and serialize both
// regions.
func Build(w io.Writer, g *graph.Graph, model prop.Model, prof *topic.Profiles, cfg wris.Config, opts BuildOptions) (*indexfile.BuildStats, error) {
	return indexfile.Build(w, g, model, prof, cfg, opts, indexfile.Format{
		Name:    "rrindex",
		Magic:   indexMagic,
		Version: indexVersion,
		Encode:  encodeKeyword,
	})
}

// encodeKeyword serializes one keyword's sets region (with its checkpoints)
// and inverted region.
func encodeKeyword(h *indexfile.Header, kw *indexfile.Sample) indexfile.Encoded {
	batch := kw.Sets
	var sets []byte
	var checkpoints []int64
	for i := 0; i < batch.Len(); i++ {
		sets = h.Compression.AppendList(sets, batch.Set(i))
		if (i+1)%checkpointInterval == 0 {
			checkpoints = append(checkpoints, int64(len(sets)))
		}
	}
	if len(checkpoints) == 0 || checkpoints[len(checkpoints)-1] != int64(len(sets)) {
		checkpoints = append(checkpoints, int64(len(sets)))
	}

	lists := batch.InvertedLists(h.NumVertices)
	var inv []byte
	numLists := 0
	tmp := make([]uint32, 0, 64)
	for v, list := range lists {
		if len(list) == 0 {
			continue
		}
		numLists++
		inv = binary.AppendUvarint(inv, uint64(v))
		tmp = tmp[:0]
		for _, id := range list {
			tmp = append(tmp, uint32(id))
		}
		inv = h.Compression.AppendList(inv, tmp)
	}

	d := &KeywordDir{
		TopicID:     kw.TopicID,
		ThetaW:      int64(batch.Len()),
		TFSum:       kw.TFSum,
		Phi:         kw.Phi,
		SetsLen:     int64(len(sets)),
		InvLen:      int64(len(inv)),
		NumInvLists: numLists,
		Checkpoints: checkpoints,
	}
	return indexfile.Encoded{
		Regions: [][]byte{sets, inv},
		AppendDir: func(buf []byte, offs []int64) []byte {
			d.SetsOff, d.InvOff = offs[0], offs[1]
			return appendKeywordDir(buf, d)
		},
	}
}
