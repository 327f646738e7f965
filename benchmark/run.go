package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"kbtim"
)

// Shares of -seconds each phase of a run gets. The warm-up is discarded and
// never dropped: the first window after start-up runs ≈18 % slow.
const (
	warmShare   = 0.08
	closedShare = 0.32
	streamShare = 0.20
	openShare   = 0.40
)

// rounds is how many independent rounds a run makes (see runEndToEnd).
const rounds = 3

// qualityRounds is the Monte-Carlo budget of each EvaluateSpread call behind
// spread_vs_wris. A round costs ≈0.8 ms at refSizing, so ISSUE 12's 2 000
// rounds × 32 seed sets would take 50 s of every run; 100 rounds resolve the
// 16-query ratio to about ±2 %.
const qualityRounds = 100

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the per-phase part of the detail document: operation counts
// and the sample count beside every percentile.
type phaseReport struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	// Samples is the smallest per-round sample count behind the phase's
	// percentiles, and TailOK whether that many carry a p90 (ten beyond it).
	Samples int  `json:"samples_per_round"`
	TailOK  bool `json:"p90_has_10_samples_beyond"`
}

// add folds one round's report of the same phase in.
func (r *phaseReport) add(o phaseReport) {
	if r.Attempted == 0 || o.Samples < r.Samples {
		r.Samples, r.TailOK = o.Samples, o.TailOK
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.WallS += o.WallS
}

// outcome is what one run hands to main for printing.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Detail    map[string]any
}

// runConfig is one invocation's inputs.
type runConfig struct {
	wl      *workload
	sz      sizing
	seed    uint64
	seconds float64
	workDir string // scratch directory for this run, inside the checkout
	outDir  string // where trace files go
	bin     string // the built kbtim-serve
	ps      *procs
}

// share is the given fraction of -seconds.
func (c *runConfig) share(f float64) time.Duration {
	return time.Duration(c.seconds * f * float64(time.Second))
}

// failures collects failed operations, keeping the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(phase string, idx int, err error) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf("%s query %d: %v", phase, idx, err))
	}
}

// checkPass verifies every sample of a measured pass against the reference
// answers and returns its report and latency distributions (lat, first).
func checkPass(p *pass, queries []query, stream bool, want map[string]*kbtim.Result, fails *failures, overhead *dist) (phaseReport, *dist, *dist) {
	lat, first := &dist{}, &dist{}
	rep := phaseReport{Name: p.Name, Attempted: len(p.samples), WallS: p.wall.Seconds()}
	for i := range p.samples {
		s := &p.samples[i]
		q := queries[s.idx]
		r, err := checkSample(s, q, stream, want[q.key()])
		if err != nil {
			rep.Failed++
			fails.add(p.Name, s.idx, err)
			continue
		}
		lat.add(s.lat)
		if stream {
			first.add(s.first)
		}
		if overhead != nil {
			overhead.add(s.lat - time.Duration(r.ElapsedMS*float64(time.Millisecond)))
		}
	}
	rep.Samples, rep.TailOK = lat.n(), supported(lat.n(), 0.90)
	return rep, lat, first
}

// serversCPU sums the CPU time of every server process.
func serversCPU(f *fixture) (time.Duration, error) {
	var total time.Duration
	for _, p := range f.servers {
		t, err := p.cpuTime()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += t
	}
	return total, nil
}

// spreadVsWRIS is the paper's Table 7 on 16 fixed queries: the Monte-Carlo
// spread of the seeds the SERVER returned over that of online WRIS seeds.
// Every EvaluateSpread call seeds its own generator from the engine seed, so
// the ratio repeats exactly; the evaluations run on all cores because the
// servers are stopped by now.
func spreadVsWRIS(f *fixture, qs []query, served []*reply) (ratio float64, wrisMS *dist, err error) {
	wrisMS = &dist{}
	seedSets := make([][]kbtim.Seed, 0, 2*len(qs)) // served, WRIS, served, WRIS, …
	for i, q := range qs {
		w, err := f.eng.QueryWRIS(kbtim.Query{Topics: q.Topics, K: q.K})
		if err != nil {
			return 0, nil, fmt.Errorf("QueryWRIS %v: %w", q.Topics, err)
		}
		wrisMS.add(w.Elapsed)
		seedSets = append(seedSets, served[i].Seeds, w.Seeds)
	}
	spreads := make([]float64, len(seedSets))
	errs := make([]error, len(seedSets))
	onAllCores(len(seedSets), func(i int) {
		q := qs[i/2]
		spreads[i], errs[i] = f.eng.EvaluateSpread(seedSets[i], kbtim.Query{Topics: q.Topics, K: q.K}, qualityRounds)
	})
	var sumServed, sumWRIS float64
	for i, v := range spreads {
		if errs[i] != nil {
			return 0, nil, errs[i]
		}
		if i%2 == 0 {
			sumServed += v
		} else {
			sumWRIS += v
		}
	}
	if sumWRIS == 0 {
		return 0, nil, fmt.Errorf("WRIS seeds have zero spread")
	}
	return sumServed / sumWRIS, wrisMS, nil
}

// spreadFloor is the lowest spread_vs_wris a correct index may show: every
// strategy carries the same (1−1/e−ε) guarantee, so served seeds land within
// a few percent of WRIS's.
const spreadFloor = 0.90

// round is one of a run's independent repetitions: a fresh set-up, fresh
// server processes, and one warm-up → closed → stream → open cycle on them.
type round struct {
	setup                time.Duration
	closed, stream, open pass
	cpu                  time.Duration // server CPU over the closed pass
	rss                  int64         // Σ VmHWM of the server processes
}

// measure runs the round's three timed passes against fx's servers, reads
// their CPU and memory, and stops them so that the next set-up, or the checks
// after the last round, have the box.
func (rd *round) measure(c *runConfig, fx *fixture, ld *loader) error {
	wl := c.wl
	cpu0, err := serversCPU(fx)
	if err != nil {
		return err
	}
	rd.closed = ld.closedLoop("closed", wl.Clients, c.share(closedShare)/rounds, false)
	cpu1, err := serversCPU(fx)
	if err != nil {
		return err
	}
	rd.cpu = cpu1 - cpu0
	rd.stream = ld.closedLoop("stream", wl.Clients, c.share(streamShare)/rounds, true)
	rd.open = ld.openLoop("open", wl.Clients, wl.OpenRate, c.share(openShare)/rounds, func(idx int, ref time.Time) sample {
		return ld.do(idx, false, ref)
	})
	for _, p := range fx.servers {
		hwm, err := p.peakRSS()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rd.rss += hwm
	}
	for _, p := range fx.servers {
		c.ps.stop(p)
	}
	return nil
}

// runEndToEnd is the untraced run: it produces every end_to_end metric. A run
// is `rounds` independent rounds and every metric is the MEDIAN of its
// per-round values: on the shared 2-core reference box a whole 4 s window can
// land in a slow spell of the host (±8 % for seconds at a time), and three
// windows on three process sets, several seconds apart, outvote one. On an
// error the caller's clean-up stops the servers and removes the work directory.
func runEndToEnd(ctx context.Context, c *runConfig) (*outcome, error) {
	wl := c.wl
	var (
		fx      *fixture
		ld      *loader
		queries []query
		quality []query
		served  []*reply
		rs      []round
		warmed  int
	)
	for r := 0; r < rounds; r++ {
		if fx != nil {
			fx.tearDown(c.ps)
		}
		var rd round
		var err error
		fx, rd.setup, err = setUp(ctx, wl, c.sz, filepath.Join(c.workDir, "round"+strconv.Itoa(r)), c.ps, c.bin)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		if ld == nil {
			// The whole query sequence exists before any timing; the rounds
			// consume consecutive stretches of it.
			if queries, err = generate(wl, fx.universe, c.seed, sequenceLen(c.seconds)); err == nil {
				quality, err = qualityQueries(wl, fx.universe)
			}
			if err != nil {
				return nil, err
			}
			ld = newLoader(queries, wl.Clients)
			defer ld.close()
		}
		ld.url = fx.target()
		if r == rounds-1 {
			// Untimed: the quality queries' served answers.
			for _, q := range quality {
				rep, err := ld.ask(q)
				if err != nil {
					return nil, fmt.Errorf("quality query %v: %w\n%s", q.Topics, err, fx.servers[0].stderr)
				}
				served = append(served, rep)
			}
		}
		warmed += len(ld.closedLoop("warmup", wl.Clients, c.share(warmShare)/rounds, false).samples)
		if err := rd.measure(c, fx, ld); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rs = append(rs, rd)
	}
	defer fx.tearDown(c.ps)
	if int(ld.next.Load()) > len(queries) {
		return nil, fmt.Errorf("query sequence of %d used up; raise sequenceLen", len(queries))
	}

	// Every round built the same index files, so the last round's serve as the
	// reference for all of them.
	ref, err := openReference(fx, wl)
	if err != nil {
		return nil, fmt.Errorf("open reference: %w", err)
	}
	defer ref.Close()
	var idxs []int
	for i := range rs {
		for _, p := range []*pass{&rs[i].closed, &rs[i].stream, &rs[i].open} {
			for j := range p.samples {
				idxs = append(idxs, p.samples[j].idx)
			}
		}
	}
	want, err := answers(ref, queries, idxs)
	if err != nil {
		return nil, err
	}
	fails := &failures{}
	per := make(map[string][]float64) // metric → one value per round
	reports := map[string]*phaseReport{"closed": {Name: "closed"}, "stream": {Name: "stream"}, "open": {Name: "open"}}
	achieved := 1.0
	for i := range rs {
		rd := &rs[i]
		closedRep, closedLat, _ := checkPass(&rd.closed, queries, false, want, fails, nil)
		streamRep, _, ttfs := checkPass(&rd.stream, queries, true, want, fails, nil)
		openRep, openLat, _ := checkPass(&rd.open, queries, false, want, fails, nil)
		for _, rep := range []phaseReport{closedRep, streamRep, openRep} {
			reports[rep.Name].add(rep)
		}
		n := float64(len(rd.closed.samples))
		per["setup_s"] = append(per["setup_s"], rd.setup.Seconds())
		per["qps"] = append(per["qps"], n/rd.closed.wall.Seconds())
		per["lat_p50_ms"] = append(per["lat_p50_ms"], closedLat.p(0.50))
		per["lat_p90_ms"] = append(per["lat_p90_ms"], closedLat.p(0.90))
		per["ttfs_p50_ms"] = append(per["ttfs_p50_ms"], ttfs.p(0.50))
		per["open_lat_p90_ms"] = append(per["open_lat_p90_ms"], openLat.p(0.90))
		per["cpu_ms_per_query"] = append(per["cpu_ms_per_query"], float64(rd.cpu)/float64(time.Millisecond)/n)
		per["rss_peak_mb"] = append(per["rss_peak_mb"], float64(rd.rss)/1e6)
		achieved = math.Min(achieved, ratio(rd.open.intended.Seconds(), rd.open.wall.Seconds()))
	}

	quotient, wrisMS, err := spreadVsWRIS(fx, quality, served)
	if err != nil {
		return nil, err
	}
	qualityRep := phaseReport{Name: "quality", Attempted: 1}
	if quotient < spreadFloor {
		qualityRep.Failed = 1
		fails.add("quality", 0, fmt.Errorf("spread_vs_wris %.4f below the floor %.2f", quotient, spreadFloor))
	}

	units := map[string]string{
		"setup_s": "s", "qps": "1/s", "lat_p50_ms": "ms", "lat_p90_ms": "ms", "ttfs_p50_ms": "ms",
		"open_lat_p90_ms": "ms", "cpu_ms_per_query": "ms", "rss_peak_mb": "MB",
	}
	out := &outcome{
		Attempted: reports["closed"].Attempted + reports["stream"].Attempted + reports["open"].Attempted + 1,
		Failed:    fails.n,
		Metrics: map[string]metric{
			"index_mb":       {fx.indexMB, "MB"},
			"spread_vs_wris": {quotient, "ratio"},
		},
	}
	for name, unit := range units {
		out.Metrics[name] = metric{median(per[name]), unit}
	}
	out.Correct = out.Failed == 0
	out.Detail = map[string]any{
		"rounds":    rounds,
		"per_round": per,
		"phases": []phaseReport{
			{Name: "warmup", Attempted: warmed}, *reports["closed"], *reports["stream"], *reports["open"], qualityRep,
		},
		"open_rate":            wl.OpenRate,
		"open_achieved_ratio":  achieved,
		"open_saturated":       achieved < 0.98,
		"wris_online_query_ms": wrisMS.p(0.50),
		"distinct_queries":     len(want),
		"failures":             fails.msgs,
	}
	return out, nil
}

// sequenceLen is how many queries a run generates up front: well above what
// the fastest workload can consume in the time given.
func sequenceLen(seconds float64) int {
	return 20000 + int(seconds*4000)
}
