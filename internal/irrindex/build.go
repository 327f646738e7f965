package irrindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// BuildOptions configures IRR index construction (Algorithm 3).
type BuildOptions struct {
	// Compression selects the list codec.
	Compression codec.Compression
	// Sizing selects θ̂_w vs θ_w.
	Sizing wris.SizingMode
	// PartitionSize is δ, the number of inverted lists per partition
	// (the paper uses 100). 0 uses DefaultPartitionSize.
	PartitionSize int
	// Topics restricts the index to a subset; nil indexes all topics with
	// positive mass.
	Topics []int
}

// DefaultPartitionSize is the paper's δ = 100.
const DefaultPartitionSize = 100

// KeywordStats reports one keyword's build outcome.
type KeywordStats struct {
	TopicID       int
	Theta         int
	Capped        bool
	MeanRRSize    float64
	NumPartitions int
	Bytes         int64
}

// BuildStats summarizes an IRR build.
type BuildStats struct {
	Keywords   []KeywordStats
	TotalBytes int64
	Elapsed    time.Duration
}

// SumTheta returns Σ_w θ_w.
func (s *BuildStats) SumTheta() int64 {
	var total int64
	for _, k := range s.Keywords {
		total += int64(k.Theta)
	}
	return total
}

// MeanRRSize returns the set-count-weighted mean RR-set size.
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

type kwPayload struct {
	dir KeywordDir
	ip  []byte
	// parts[i] is the serialized i-th partition block (IL, then claimed IDs).
	parts [][]byte
}

// Build constructs the IRR index (Algorithm 3): per keyword it samples the
// same θ_w RR sets as the basic RR index, derives (IR, IL, IP), sorts the
// inverted lists by descending length, cuts them into δ-user partitions,
// and assigns each RR set to the first partition containing one of its
// members.
func Build(w io.Writer, g *graph.Graph, model prop.Model, prof *topic.Profiles, cfg wris.Config, opts BuildOptions) (*BuildStats, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !opts.Compression.Valid() {
		return nil, fmt.Errorf("irrindex: invalid compression %d", opts.Compression)
	}
	if opts.PartitionSize == 0 {
		opts.PartitionSize = DefaultPartitionSize
	}
	if opts.PartitionSize < 0 {
		return nil, fmt.Errorf("irrindex: negative partition size")
	}
	topics := opts.Topics
	if topics == nil {
		for t := 0; t < prof.NumTopics(); t++ {
			if prof.TFSum(t) > 0 {
				topics = append(topics, t)
			}
		}
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("irrindex: no topics to index")
	}

	stats := &BuildStats{}
	payloads := make([]kwPayload, 0, len(topics))
	for _, t := range topics {
		if t < 0 || t >= prof.NumTopics() {
			return nil, fmt.Errorf("irrindex: topic %d outside topic space", t)
		}
		if prof.TFSum(t) <= 0 {
			return nil, fmt.Errorf("irrindex: topic %d has no mass", t)
		}
		p, ks, err := buildKeyword(g, model, prof, t, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("irrindex: keyword %d: %w", t, err)
		}
		payloads = append(payloads, p)
		stats.Keywords = append(stats.Keywords, ks)
	}

	hdr := Header{
		Compression:   opts.Compression,
		Sizing:        opts.Sizing,
		ModelName:     model.Name(),
		NumVertices:   g.NumVertices(),
		NumTopics:     prof.NumTopics(),
		K:             cfg.K,
		Epsilon:       cfg.Epsilon,
		PartitionSize: opts.PartitionSize,
	}
	prelude, err := assemblePrelude(&hdr, payloads)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(prelude); err != nil {
		return nil, err
	}
	written := int64(len(prelude))
	for i := range payloads {
		if _, err := w.Write(payloads[i].ip); err != nil {
			return nil, err
		}
		written += int64(len(payloads[i].ip))
		for _, part := range payloads[i].parts {
			if _, err := w.Write(part); err != nil {
				return nil, err
			}
			written += int64(len(part))
		}
	}
	stats.TotalBytes = written
	stats.Elapsed = time.Since(start)
	return stats, nil
}

func assemblePrelude(hdr *Header, payloads []kwPayload) ([]byte, error) {
	measure, err := appendHeader(nil, hdr, len(payloads))
	if err != nil {
		return nil, err
	}
	for i := range payloads {
		measure = appendKeywordDir(measure, &payloads[i].dir)
	}
	preludeLen := int64(len(measure))

	off := preludeLen
	for i := range payloads {
		p := &payloads[i]
		p.dir.IPOff = off
		off += int64(len(p.ip))
		for j := range p.dir.Partitions {
			p.dir.Partitions[j].Off = off
			off += p.dir.Partitions[j].Len
		}
	}
	buf, err := appendHeader(nil, hdr, len(payloads))
	if err != nil {
		return nil, err
	}
	for i := range payloads {
		buf = appendKeywordDir(buf, &payloads[i].dir)
	}
	if int64(len(buf)) != preludeLen {
		return nil, fmt.Errorf("irrindex: prelude size drifted")
	}
	binary.LittleEndian.PutUint64(buf[8:16], uint64(preludeLen))
	return buf, nil
}

func buildKeyword(g *graph.Graph, model prop.Model, prof *topic.Profiles, t int, cfg wris.Config, opts BuildOptions) (kwPayload, KeywordStats, error) {
	theta, capped, err := wris.PlanThetaW(g, model, prof, t, cfg, opts.Sizing)
	if err != nil {
		return kwPayload{}, KeywordStats{}, err
	}
	users, weights := wris.KeywordSupport(prof, t)
	picker, err := rrset.NewWeightedRoots(users, weights)
	if err != nil {
		return kwPayload{}, KeywordStats{}, err
	}
	// Identical seed derivation to rrindex.Build: both indexes over the
	// same inputs contain the same RR sets, which is what makes Theorem 3
	// testable end to end.
	batch := rrset.Generate(g, model, picker, rrset.GenerateOptions{
		Count:   theta,
		Seed:    cfg.Seed ^ (uint64(t+1) * 0x9E3779B97F4A7C15),
		Workers: cfg.Workers,
	})
	lists := batch.InvertedLists(g.NumVertices())

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
	delta := opts.PartitionSize
	numParts := (len(rows) + delta - 1) / delta
	partOf := make([]int32, g.NumVertices())
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
	payload := kwPayload{
		dir: KeywordDir{
			TopicID:      t,
			ThetaW:       int64(batch.Len()),
			TFSum:        prof.TFSum(t),
			Phi:          prof.Phi(t),
			IPLen:        int64(len(ip)),
			NumIPEntries: numIP,
		},
		ip: ip,
	}
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
			block = opts.Compression.AppendList(block, tmp)
		}
		// IR part: the claimed set IDs as ONE compressed list (setsByPart
		// appends in ascending s order) and nothing else — Algorithm 4 here
		// never reads the member lists, so the file does not carry them.
		tmp = tmp[:0]
		for _, s := range setsByPart[p] {
			tmp = append(tmp, uint32(s))
		}
		block = opts.Compression.AppendList(block, tmp)
		payload.dir.Partitions = append(payload.dir.Partitions, Partition{
			Len:         int64(len(block)),
			NumUsers:    hi - lo,
			NumSets:     len(setsByPart[p]),
			LastListLen: len(rows[hi-1].list),
		})
		payload.parts = append(payload.parts, block)
	}

	ks := KeywordStats{
		TopicID:       t,
		Theta:         batch.Len(),
		Capped:        capped,
		MeanRRSize:    batch.MeanSize(),
		NumPartitions: numParts,
	}
	ks.Bytes = int64(len(ip))
	for _, part := range payload.parts {
		ks.Bytes += int64(len(part))
	}
	return payload, ks, nil
}
