package indexfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// BuildOptions configures a build of either index kind.
type BuildOptions struct {
	// Compression selects the list codec (Table 4's ablation).
	Compression codec.Compression
	// Sizing selects θ̂_w vs θ_w (Table 3's ablation).
	Sizing wris.SizingMode
	// Topics restricts the index to a keyword subset; nil indexes every
	// topic with positive mass.
	Topics []int
}

// KeywordStats reports one keyword's build outcome.
type KeywordStats struct {
	TopicID    int
	Theta      int     // number of RR sets sampled
	Capped     bool    // whether MaxThetaPerKeyword truncated θ_w
	MeanRRSize float64 // average RR-set cardinality (Table 5)
}

// BuildStats summarizes a build (Tables 3–5).
type BuildStats struct {
	Keywords   []KeywordStats
	TotalBytes int64
	Elapsed    time.Duration
}

// SumTheta returns Σ_w θ_w (the "Sum of θw" column of Table 5).
func (s *BuildStats) SumTheta() int64 {
	var total int64
	for _, k := range s.Keywords {
		total += int64(k.Theta)
	}
	return total
}

// MeanRRSize returns the set-count-weighted mean RR-set size across
// keywords (Table 5).
func (s *BuildStats) MeanRRSize() float64 {
	var sets, members float64
	for _, k := range s.Keywords {
		sets += float64(k.Theta)
		members += float64(k.Theta) * k.MeanRRSize
	}
	if sets == 0 {
		return 0
	}
	return members / sets
}

// Format is one index kind as Build writes it: everything else about a
// build is shared.
type Format struct {
	// Name is the owning package; it prefixes build errors.
	Name    string
	Magic   string
	Version uint32
	// Tail is the kind's own header fields, written between ε and
	// numKeywords.
	Tail []byte
	// Encode lays out one keyword's sampled RR sets.
	Encode func(h *Header, kw *Sample) Encoded
}

// Sample is one keyword's R_w as Build hands it to a format's encoder.
type Sample struct {
	TopicID int
	TFSum   float64
	Phi     float64
	Sets    *rrset.Batch
}

// Encoded is one keyword as its format lays it out.
type Encoded struct {
	// Regions are the keyword's payload regions in file order.
	Regions [][]byte
	// AppendDir appends the keyword's directory entry to buf given offs[i],
	// the absolute file offset of Regions[i]. The entry's length must not
	// depend on the offsets.
	AppendDir func(buf []byte, offs []int64) []byte
}

// Build writes one index of kind fm over prof's keywords to w. Per keyword
// it samples R_w (wris.SampleKeyword) and has fm encode it; then it writes
// the prelude — frame, header, fm's tail, one directory entry per keyword —
// followed by every keyword's regions in directory order.
func Build(w io.Writer, g *graph.Graph, model prop.Model, prof *topic.Profiles, cfg wris.Config, opts BuildOptions, fm Format) (*BuildStats, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hdr := Header{
		Compression: opts.Compression,
		Sizing:      opts.Sizing,
		ModelName:   model.Name(),
		NumVertices: g.NumVertices(),
		NumTopics:   prof.NumTopics(),
		K:           cfg.K,
		Epsilon:     cfg.Epsilon,
	}
	if !hdr.Compression.Valid() {
		return nil, fmt.Errorf("%s: invalid compression %d", fm.Name, hdr.Compression)
	}
	if len(hdr.ModelName) == 0 || len(hdr.ModelName) > 255 {
		return nil, fmt.Errorf("%s: invalid model name %q", fm.Name, hdr.ModelName)
	}
	topics, err := buildTopics(prof, opts.Topics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fm.Name, err)
	}

	stats := &BuildStats{Keywords: make([]KeywordStats, 0, len(topics))}
	kws := make([]Encoded, 0, len(topics))
	for _, t := range topics {
		sets, capped, err := wris.SampleKeyword(g, model, prof, t, cfg, opts.Sizing)
		if err != nil {
			return nil, fmt.Errorf("%s: keyword %d: %w", fm.Name, t, err)
		}
		kws = append(kws, fm.Encode(&hdr, &Sample{TopicID: t, TFSum: prof.TFSum(t), Phi: prof.Phi(t), Sets: sets}))
		stats.Keywords = append(stats.Keywords, KeywordStats{
			TopicID:    t,
			Theta:      sets.Len(),
			Capped:     capped,
			MeanRRSize: sets.MeanSize(),
		})
	}

	prelude, err := writePrelude(&fm, &hdr, kws)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(prelude); err != nil {
		return nil, err
	}
	written := int64(len(prelude))
	for _, kw := range kws {
		for _, region := range kw.Regions {
			if _, err := w.Write(region); err != nil {
				return nil, err
			}
			written += int64(len(region))
		}
	}
	stats.TotalBytes = written
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// buildTopics checks a requested topic list, or returns every topic with
// positive mass when topics is nil.
func buildTopics(prof *topic.Profiles, topics []int) ([]int, error) {
	if topics == nil {
		for t := 0; t < prof.NumTopics(); t++ {
			if prof.TFSum(t) > 0 {
				topics = append(topics, t)
			}
		}
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("no topics to index")
	}
	seen := make([]bool, prof.NumTopics())
	for _, t := range topics {
		if t < 0 || t >= prof.NumTopics() {
			return nil, fmt.Errorf("topic %d outside topic space", t)
		}
		if prof.TFSum(t) <= 0 {
			return nil, fmt.Errorf("topic %d has no mass", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("topic %d listed twice", t)
		}
		seen[t] = true
	}
	return topics, nil
}

// writePrelude serializes the prelude Open reads back: a measure pass sizes
// it, which fixes every region's absolute offset; a write pass emits the
// directory at those offsets; and the frame's preludeLen slot is patched.
func writePrelude(fm *Format, h *Header, kws []Encoded) ([]byte, error) {
	measure := appendPrelude(nil, fm, h, len(kws))
	for _, kw := range kws {
		measure = kw.AppendDir(measure, make([]int64, len(kw.Regions)))
	}
	preludeLen := int64(len(measure))

	buf := appendPrelude(make([]byte, 0, preludeLen), fm, h, len(kws))
	var offs []int64
	off := preludeLen
	for _, kw := range kws {
		offs = offs[:0]
		for _, region := range kw.Regions {
			offs = append(offs, off)
			off += int64(len(region))
		}
		buf = kw.AppendDir(buf, offs)
	}
	if int64(len(buf)) != preludeLen {
		return nil, fmt.Errorf("%s: prelude size drifted (%d vs %d)", fm.Name, len(buf), preludeLen)
	}
	binary.LittleEndian.PutUint64(buf[8:frameLen], uint64(preludeLen))
	return buf, nil
}

// appendPrelude appends frame and header for numKeywords directory entries;
// the preludeLen slot is left 0 for the writer to patch.
func appendPrelude(buf []byte, fm *Format, h *Header, numKeywords int) []byte {
	buf = append(buf, fm.Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, fm.Version)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = append(buf, byte(h.Compression), byte(h.Sizing), byte(len(h.ModelName)))
	buf = append(buf, h.ModelName...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.NumVertices))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.NumTopics))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.K))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Epsilon))
	buf = append(buf, fm.Tail...)
	return binary.LittleEndian.AppendUint32(buf, uint32(numKeywords))
}
