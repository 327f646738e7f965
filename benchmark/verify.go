package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kbtim"
)

// reference answers queries in-process over the same index files the servers
// opened; *kbtim.Engine and *kbtim.Sharded both satisfy it.
type reference interface {
	QueryRRCtx(context.Context, kbtim.Query) (*kbtim.Result, error)
	QueryIRRCtx(context.Context, kbtim.Query) (*kbtim.Result, error)
	Close() error
}

// openReference opens the fixture's index files in this process: one Engine
// for a single-engine workload, an in-process Sharded over the same shard
// files otherwise. Caches are on, because the reference answers every
// distinct measured query once and should do it quickly.
func openReference(f *fixture, wl *workload) (reference, error) {
	opts := f.sz.options()
	opts.CacheBytes = 64 << 20
	opts.DecodedCacheBytes = 128 << 20
	if wl.Shards > 1 {
		return kbtim.OpenShardedIndexes(f.ds, opts, f.rrPath, f.irrPath, wl.Shards, kbtim.ShardHash, runtime.NumCPU())
	}
	eng, err := kbtim.NewEngine(f.ds, opts)
	if err != nil {
		return nil, err
	}
	if f.rrPath != "" {
		if err := eng.OpenRRIndex(f.rrPath); err != nil {
			eng.Close()
			return nil, err
		}
	}
	if f.irrPath != "" {
		if err := eng.OpenIRRIndex(f.irrPath); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

func askReference(ref reference, q query) (*kbtim.Result, error) {
	kq := kbtim.Query{Topics: q.Topics, K: q.K}
	if q.Strategy == "rr" {
		return ref.QueryRRCtx(context.Background(), kq)
	}
	return ref.QueryIRRCtx(context.Background(), kq)
}

// onAllCores runs fn(0) … fn(n-1) on one worker per CPU and returns when all
// are done. It is for the work after the measurement, when the servers are
// idle or gone and the box is free.
func onAllCores(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// answers computes the reference result of every distinct query among idxs.
func answers(ref reference, queries []query, idxs []int) (map[string]*kbtim.Result, error) {
	seen := make(map[string]bool)
	var distinct []query
	for _, i := range idxs {
		if k := queries[i].key(); !seen[k] {
			seen[k] = true
			distinct = append(distinct, queries[i])
		}
	}
	results := make([]*kbtim.Result, len(distinct))
	errs := make([]error, len(distinct))
	onAllCores(len(distinct), func(i int) { results[i], errs[i] = askReference(ref, distinct[i]) })
	out := make(map[string]*kbtim.Result, len(distinct))
	for i, q := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %s: %w", q.key(), errs[i])
		}
		out[q.key()] = results[i]
	}
	return out, nil
}

// reply is the part of the server's /query JSON the checks read.
type reply struct {
	Strategy  string   `json:"strategy"`
	Seeds     []uint32 `json:"seeds"`
	Marginals []int    `json:"marginals"`
	EstSpread float64  `json:"est_spread"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Partial   bool     `json:"partial"`
	Done      bool     `json:"done"`
	Error     string   `json:"error"`
}

type seedRecord struct {
	Seed     *uint32 `json:"seed"`
	Marginal int     `json:"marginal"`
}

// matches compares a reply with the reference: same seeds in the same order,
// same marginals, and the bit-identical spread estimate.
func (r *reply) matches(q query, want *kbtim.Result) error {
	if r.Strategy != q.Strategy {
		return fmt.Errorf("strategy %q, sent %q", r.Strategy, q.Strategy)
	}
	if r.Partial {
		return fmt.Errorf("partial reply without a deadline")
	}
	if len(r.Seeds) != len(want.Seeds) || len(r.Marginals) != len(want.Marginals) {
		return fmt.Errorf("%d seeds / %d marginals, reference has %d / %d", len(r.Seeds), len(r.Marginals), len(want.Seeds), len(want.Marginals))
	}
	for i := range r.Seeds {
		if r.Seeds[i] != want.Seeds[i] || r.Marginals[i] != want.Marginals[i] {
			return fmt.Errorf("seed %d is (%d, +%d), reference (%d, +%d)", i, r.Seeds[i], r.Marginals[i], want.Seeds[i], want.Marginals[i])
		}
	}
	if r.EstSpread != want.EstSpread {
		return fmt.Errorf("est_spread %v, reference %v", r.EstSpread, want.EstSpread)
	}
	return nil
}

// checkSample verifies one measured request: transport, status, shape of the
// reply (for a stream: the seed records must spell out the terminal record)
// and parity with the reference. It returns the parsed terminal reply.
func checkSample(s *sample, q query, stream bool, want *kbtim.Result) (*reply, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != 200 {
		return nil, fmt.Errorf("HTTP %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	if want == nil {
		return nil, fmt.Errorf("no reference answer")
	}
	var r reply
	if !stream {
		if err := json.Unmarshal(s.body, &r); err != nil {
			return nil, fmt.Errorf("malformed reply: %v", err)
		}
		return &r, r.matches(q, want)
	}
	lines := bytes.Split(bytes.TrimSuffix(s.body, []byte("\n")), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || !r.Done {
		return nil, fmt.Errorf("malformed stream: last line is not a done record")
	}
	if r.Error != "" {
		return nil, fmt.Errorf("stream ended in error: %s", r.Error)
	}
	if len(lines)-1 != len(r.Seeds) {
		return nil, fmt.Errorf("malformed stream: %d seed records for %d seeds", len(lines)-1, len(r.Seeds))
	}
	for i, line := range lines[:len(lines)-1] {
		var rec seedRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Seed == nil {
			return nil, fmt.Errorf("malformed stream: record %d", i)
		}
		if *rec.Seed != r.Seeds[i] || rec.Marginal != r.Marginals[i] {
			return nil, fmt.Errorf("stream record %d is (%d, +%d), terminal record says (%d, +%d)", i, *rec.Seed, rec.Marginal, r.Seeds[i], r.Marginals[i])
		}
	}
	return &r, r.matches(q, want)
}
