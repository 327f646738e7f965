package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// timedReader is the diskio layer's probe: a Segmented decorator that sits
// directly above the index file (below the byte cache), counts every read
// that reaches the medium, times it, and records it as a span.
type timedReader struct {
	inner diskio.Segmented
	tr    *tracer
	reads atomic.Int64
	bytes atomic.Int64
	ns    atomic.Int64
}

func (r *timedReader) ReadSegment(off, length int64) ([]byte, error) {
	start := time.Now()
	b, err := r.inner.ReadSegment(off, length)
	end := time.Now()
	r.reads.Add(1)
	r.bytes.Add(int64(len(b)))
	r.ns.Add(int64(end.Sub(start)))
	r.tr.leaf("diskio.read", start, end)
	return b, err
}

func (r *timedReader) Size() int64              { return r.inner.Size() }
func (r *timedReader) Counter() *diskio.Counter { return r.inner.Counter() }

// indexStack is one opened index file with the tiers kbtim.Engine.openHandle
// puts on it — file → (probe) → byte cache → decoded cache → index — built
// from the internal packages so the probe can sit between them.
type indexStack struct {
	file  *diskio.File
	probe *timedReader
	cache *diskio.CachedReader
	dec   *objcache.Cache
	rr    *rrindex.Index
	irr   *irrindex.Index
}

// layerStack is the in-process twin of a workload's deployment: per strategy
// one indexStack per shard, with the workload's cache budgets split across
// shards the way kbtim-serve splits them.
type layerStack struct {
	sm  *shardmap.Map
	rr  []*indexStack
	irr []*indexStack
}

func budget(mb, def int, shards int) int64 {
	if mb < 0 {
		mb = def
	}
	return int64(mb) << 20 / int64(shards)
}

// queryPar is kbtim-serve's default -query-parallelism.
const queryPar = 2

func openIndexStack(path, kind string, cacheBytes, decBytes int64, tr *tracer) (*indexStack, error) {
	f, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		return nil, err
	}
	s := &indexStack{file: f, probe: &timedReader{inner: f, tr: tr}}
	var r diskio.Segmented = s.probe
	if cacheBytes > 0 {
		s.cache = diskio.NewCachedReader(r, cacheBytes)
		r = s.cache
	}
	if decBytes > 0 {
		s.dec = objcache.NewSharded(decBytes, 0)
	}
	if kind == "rr" {
		if s.rr, err = rrindex.Open(r); err == nil {
			s.rr.SetDecodedCache(s.dec)
			s.rr.SetQueryParallelism(queryPar)
		}
	} else {
		if s.irr, err = irrindex.Open(r); err == nil {
			s.irr.SetDecodedCache(s.dec)
			s.irr.SetQueryParallelism(queryPar)
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	return s, nil
}

// openStack opens the fixture's index files the way the workload's servers
// do. tr may be nil.
func openStack(f *fixture, wl *workload, tr *tracer) (*layerStack, error) {
	sm, err := shardmap.New(wl.Shards, shardmap.Hash, f.ds.NumTopics())
	if err != nil {
		return nil, err
	}
	ls := &layerStack{sm: sm}
	cacheBytes, decBytes := budget(wl.CacheMB, 32, wl.Shards), budget(wl.DecodedMB, 64, wl.Shards)
	for _, kind := range []string{"rr", "irr"} {
		path := f.rrPath
		if kind == "irr" {
			path = f.irrPath
		}
		if path == "" {
			continue
		}
		for i := 0; i < wl.Shards; i++ {
			p := path
			if wl.Shards > 1 {
				p = kbtim.ShardIndexPath(path, i)
			}
			s, err := openIndexStack(p, kind, cacheBytes, decBytes, tr)
			if err != nil {
				ls.close()
				return nil, err
			}
			if kind == "rr" {
				ls.rr = append(ls.rr, s)
			} else {
				ls.irr = append(ls.irr, s)
			}
		}
	}
	return ls, nil
}

func (ls *layerStack) all() []*indexStack {
	return append(append([]*indexStack(nil), ls.rr...), ls.irr...)
}

func (ls *layerStack) close() {
	for _, s := range ls.all() {
		s.file.Close()
	}
}

// answer is what the replay keeps of one in-process query.
type answer struct {
	seeds      []uint32
	marginals  []int
	sets       int // RR sets loaded (Figures 5–7)
	partitions int // IRR partitions consumed
}

// query runs q through the index layer directly: the single index, or the
// exact multi-index merge when the keywords span shards.
func (ls *layerStack) query(ctx context.Context, q query, so wris.StreamOptions) (answer, error) {
	tq := topic.Query{Topics: q.Topics, K: q.K}
	if q.Strategy == "rr" {
		var res *rrindex.QueryResult
		var err error
		if len(ls.rr) == 1 {
			res, err = ls.rr[0].rr.QueryStreamCtx(ctx, tq, so)
		} else {
			res, err = rrindex.QueryMultiStreamCtx(ctx, func(w int) *rrindex.Index { return ls.rr[ls.sm.Owner(w)].rr }, tq, so)
		}
		if err != nil {
			return answer{}, err
		}
		return answer{seeds: res.Seeds, marginals: res.Marginals, sets: res.NumRRSets}, nil
	}
	var res *irrindex.QueryResult
	var err error
	if len(ls.irr) == 1 {
		res, err = ls.irr[0].irr.QueryStreamCtx(ctx, tq, so)
	} else {
		res, err = irrindex.QueryMultiStreamCtx(ctx, func(w int) *irrindex.Index { return ls.irr[ls.sm.Owner(w)].irr }, tq, so)
	}
	if err != nil {
		return answer{}, err
	}
	return answer{seeds: res.Seeds, marginals: res.Marginals, sets: res.NumRRSets, partitions: res.PartitionsLoaded}, nil
}

// counters is a snapshot of everything the stack's tiers count.
type counters struct {
	reads, readBytes, readNS               int64 // the probes: reads that reached the files
	byteHits, byteMisses                   int64 // diskio.CachedReader
	decHits, decMisses, decShared, decEvic int64 // objcache
}

func (ls *layerStack) counters() counters {
	var c counters
	for _, s := range ls.all() {
		c.reads += s.probe.reads.Load()
		c.readBytes += s.probe.bytes.Load()
		c.readNS += s.probe.ns.Load()
		if s.cache != nil {
			st := s.cache.Stats()
			c.byteHits += st.Hits
			c.byteMisses += st.Misses
		}
		if s.dec != nil {
			st := s.dec.Stats()
			c.decHits += st.Hits
			c.decMisses += st.Misses
			c.decShared += st.Shared
			c.decEvic += st.Evictions
		}
	}
	return c
}

// sub returns c − o, field by field.
func (c counters) sub(o counters) counters {
	return counters{
		reads: c.reads - o.reads, readBytes: c.readBytes - o.readBytes, readNS: c.readNS - o.readNS,
		byteHits: c.byteHits - o.byteHits, byteMisses: c.byteMisses - o.byteMisses,
		decHits: c.decHits - o.decHits, decMisses: c.decMisses - o.decMisses,
		decShared: c.decShared - o.decShared, decEvic: c.decEvic - o.decEvic,
	}
}
