package bench

import (
	"context"
	"fmt"
	"io"

	"kbtim/internal/codec"
	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Experiment regenerates one paper artifact, writing the table/series to w.
type Experiment func(ctx context.Context, w io.Writer, env *Env) error

// Experiments maps experiment IDs to their runners, in paper order.
var Experiments = []struct {
	ID   string
	Desc string
	Run  Experiment
}{
	{"table2", "Table 2: dataset statistics", Table2},
	{"fig4", "Figure 4: in-degree distributions", Figure4},
	{"table3", "Table 3: θ̂_w vs θ_w index size & build time", Table3},
	{"table4", "Table 4: compressed vs uncompressed indexes", Table4},
	{"table5", "Table 5: Σθ_w and mean RR-set size vs |V|", Table5},
	{"fig5", "Figure 5: query time & RR sets loaded vs Q.k", Figure5},
	{"table6", "Table 6: IRR I/O vs Q.k", Table6},
	{"table7", "Table 7: influence spread vs Q.k", Table7},
	{"fig6", "Figure 6: query time & RR sets loaded vs |Q.T|", Figure6},
	{"fig7", "Figure 7: query time & RR sets loaded vs |V|", Figure7},
	{"table8", "Table 8: example seeds per keyword and model", Table8},
	{"ablation-delta", "Ablation: IRR partition size δ", AblationPartitionSize},
	{"ablation-compress", "Ablation: compression on/off query impact", AblationCompression},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// Table2 prints the dataset statistics of both families (the Table 2
// analogue at 1:1000 scale).
func Table2(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 2: datasets (scaled ~1:1000 from the paper)",
		"dataset", "#users", "#edges", "avg-degree", "#topics")
	for _, f := range []Family{News, Twitter} {
		for _, size := range env.sizes(f) {
			g, prof, err := env.Dataset(f, size)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("%s-%d", f, size)
			if size == env.defaultSize(f) {
				name += "*"
			}
			t.add(name, g.NumVertices(), g.NumEdges(),
				fmt.Sprintf("%.1f", g.AvgDegree()), prof.NumTopics())
		}
	}
	t.addf("(* = default; #QWords sweep %v, k sweep %v)", env.Cfg.LenSweep, env.Cfg.KSweep)
	return t.write(w)
}

// Figure4 prints the log-bucketed in-degree distributions of the two
// default graphs.
func Figure4(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Figure 4: in-degree distributions (log10 buckets)",
		"dataset", "bucket[1,10)", "[10,100)", "[100,1k)", "[1k,10k)", "max-deg", "plaw-slope")
	for _, f := range []Family{News, Twitter} {
		g, _, err := env.Dataset(f, env.defaultSize(f))
		if err != nil {
			return err
		}
		h := graph.InDegreeHistogram(g)
		buckets := h.Buckets(10)
		for len(buckets) < 4 {
			buckets = append(buckets, 0)
		}
		t.add(fmt.Sprintf("%s-%d", f, env.defaultSize(f)),
			buckets[0], buckets[1], buckets[2], buckets[3],
			h.MaxDegree(), fmt.Sprintf("%.2f", h.PowerLawSlope()))
	}
	t.addf("(twitter: heavy tail with vertices followed by a large share of users; news: light tail)")
	return t.write(w)
}

// table3Sizes returns the news sizes used by Table 3 (trimmed when not in
// full mode: θ̂_w builds are an order of magnitude heavier).
func table3Sizes(env *Env) []int {
	if env.Cfg.Full {
		return env.Cfg.NewsSizes
	}
	return env.Cfg.NewsSizes[:2]
}

// Table3 compares index size and construction time under θ̂_w (Eqn 8)
// versus θ_w (Eqn 10) on the news family.
func Table3(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 3: θ̂_w vs θ_w (news, RR and IRR indexes)",
		"dataset", "RR-MB(θ̂)", "RR-MB(θ)", "IRR-MB(θ̂)", "IRR-MB(θ)",
		"RR-s(θ̂)", "RR-s(θ)", "IRR-s(θ̂)", "IRR-s(θ)")
	for _, size := range table3Sizes(env) {
		_, rrHat, err := env.RRIndex(News, size, wris.SizeThetaHat, codec.Delta)
		if err != nil {
			return err
		}
		_, rrStd, err := env.RRIndex(News, size, wris.SizeTheta, codec.Delta)
		if err != nil {
			return err
		}
		_, irrHat, err := env.IRRIndex(News, size, wris.SizeThetaHat, codec.Delta, 0)
		if err != nil {
			return err
		}
		_, irrStd, err := env.IRRIndex(News, size, wris.SizeTheta, codec.Delta, 0)
		if err != nil {
			return err
		}
		t.add(fmt.Sprintf("n%d", size),
			mb(rrHat.bytes), mb(rrStd.bytes), mb(irrHat.bytes), mb(irrStd.bytes),
			secs(rrHat.buildSec), secs(rrStd.buildSec), secs(irrHat.buildSec), secs(irrStd.buildSec))
	}
	t.addf("(paper: θ̂_w is ~9-10x larger; approximation power is identical — see Table 7)")
	return t.write(w)
}

// Table4 compares compressed and uncompressed index footprints.
func Table4(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 4: disk size & build time, uncompressed vs compressed (θ_w)",
		"dataset", "RR-MB(raw)", "IRR-MB(raw)", "RR-MB(comp)", "IRR-MB(comp)",
		"RR-s(raw)", "IRR-s(raw)", "RR-s(comp)", "IRR-s(comp)")
	for _, f := range []Family{News, Twitter} {
		sizes := env.sizes(f)
		if !env.Cfg.Full {
			sizes = sizes[:2]
		}
		for _, size := range sizes {
			_, rrRaw, err := env.RRIndex(f, size, wris.SizeTheta, codec.Raw)
			if err != nil {
				return err
			}
			_, irrRaw, err := env.IRRIndex(f, size, wris.SizeTheta, codec.Raw, 0)
			if err != nil {
				return err
			}
			_, rrC, err := env.RRIndex(f, size, wris.SizeTheta, codec.Delta)
			if err != nil {
				return err
			}
			_, irrC, err := env.IRRIndex(f, size, wris.SizeTheta, codec.Delta, 0)
			if err != nil {
				return err
			}
			t.add(fmt.Sprintf("%.1s%d", f, size),
				mb(rrRaw.bytes), mb(irrRaw.bytes), mb(rrC.bytes), mb(irrC.bytes),
				secs(rrRaw.buildSec), secs(irrRaw.buildSec), secs(rrC.buildSec), secs(irrC.buildSec))
		}
	}
	t.addf("(paper: ~40-50%% space reduction at negligible build-time cost)")
	return t.write(w)
}

// Table5 prints Σθ_w and mean RR-set size across the size sweeps.
func Table5(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 5: Σθ_w and mean RR-set size vs graph size",
		"dataset", "sum θ_w", "mean RR size")
	for _, f := range []Family{News, Twitter} {
		for _, size := range env.sizes(f) {
			_, ent, err := env.RRIndex(f, size, wris.SizeTheta, codec.Delta)
			if err != nil {
				return err
			}
			t.add(fmt.Sprintf("%.1s%d", f, size), ent.sumTheta, fmt.Sprintf("%.2f", ent.meanRR))
		}
	}
	t.addf("(paper: θ_w grows with |V| while mean RR size shrinks as the graph sparsifies)")
	return t.write(w)
}

// methodTiming measures one (method, query-set) pair.
type methodTiming struct {
	seconds float64 // mean per query
	loaded  float64 // mean RR sets examined
	io      float64 // mean logical I/O ops
	parts   float64 // mean partitions loaded (IRR)
	spread  float64 // mean MC-evaluated targeted spread (Table 7 only)
}

// runPoint measures RR, IRR, and WRIS on one (family, size, len, k) point.
// wrisEvery limits the (expensive) WRIS runs to the first n queries;
// 0 skips WRIS.
func (e *Env) runPoint(ctx context.Context, f Family, size, length, k, wrisEvery int, evalSpread bool) (rr, irr, online methodTiming, err error) {
	g, prof, err := e.Dataset(f, size)
	if err != nil {
		return rr, irr, online, err
	}
	queries, err := e.Queries(e.Cfg.QueriesPerPoint, length, k)
	if err != nil {
		return rr, irr, online, err
	}
	rrIdx, _, err := e.RRIndex(f, size, wris.SizeTheta, codec.Delta)
	if err != nil {
		return rr, irr, online, err
	}
	irrIdx, _, err := e.IRRIndex(f, size, wris.SizeTheta, codec.Delta, 0)
	if err != nil {
		return rr, irr, online, err
	}
	cfg := e.queryCfg()
	evalRNG := rng.New(e.Cfg.Seed ^ 0xEA7)
	nWRIS := 0
	for i, q := range queries {
		r1, qerr := rrIdx.QueryCtx(ctx, q)
		if qerr != nil {
			return rr, irr, online, qerr
		}
		rr.seconds += r1.Elapsed.Seconds()
		rr.loaded += float64(r1.NumRRSets)
		rr.io += float64(r1.IO.Total())

		r2, qerr := irrIdx.QueryCtx(ctx, q)
		if qerr != nil {
			return rr, irr, online, qerr
		}
		irr.seconds += r2.Elapsed.Seconds()
		irr.loaded += float64(r2.NumRRSets)
		irr.io += float64(r2.IO.Total())
		irr.parts += float64(r2.PartitionsLoaded)

		if evalSpread {
			score := func(v uint32) float64 { return prof.Score(v, q) }
			rr.spread += prop.EstimateWeightedSpread(g, prop.IC{}, r1.Seeds, score, e.Cfg.SpreadRounds, evalRNG)
			irr.spread += prop.EstimateWeightedSpread(g, prop.IC{}, r2.Seeds, score, e.Cfg.SpreadRounds, evalRNG)
		}
		if i < wrisEvery {
			r3, qerr := wris.Query(g, prop.IC{}, prof, q, cfg)
			if qerr != nil {
				return rr, irr, online, qerr
			}
			online.seconds += r3.Elapsed.Seconds()
			online.loaded += float64(r3.NumRRSets)
			if evalSpread {
				score := func(v uint32) float64 { return prof.Score(v, q) }
				online.spread += prop.EstimateWeightedSpread(g, prop.IC{}, r3.Seeds, score, e.Cfg.SpreadRounds, evalRNG)
			}
			nWRIS++
		}
	}
	n := float64(len(queries))
	rr.seconds /= n
	rr.loaded /= n
	rr.io /= n
	rr.spread /= n
	irr.seconds /= n
	irr.loaded /= n
	irr.io /= n
	irr.parts /= n
	irr.spread /= n
	if nWRIS > 0 {
		online.seconds /= float64(nWRIS)
		online.loaded /= float64(nWRIS)
		online.spread /= float64(nWRIS)
	}
	return rr, irr, online, nil
}

// Figure5 sweeps Q.k at the default keyword count.
func Figure5(ctx context.Context, w io.Writer, env *Env) error {
	for _, f := range []Family{News, Twitter} {
		t := newTable(fmt.Sprintf("Figure 5 (%s): vary Q.k, |Q.T|=%d", f, env.Cfg.DefaultLen),
			"Q.k", "RR-ms", "IRR-ms", "WRIS-ms", "RR-sets", "IRR-sets", "WRIS-sets")
		for _, k := range env.Cfg.KSweep {
			rr, irr, online, err := env.runPoint(ctx, f, env.defaultSize(f), env.Cfg.DefaultLen, k, 1, false)
			if err != nil {
				return err
			}
			t.add(k, ms(rr.seconds), ms(irr.seconds), ms(online.seconds),
				int64(rr.loaded), int64(irr.loaded), int64(online.loaded))
		}
		t.addf("(paper: RR/IRR are ~2 orders of magnitude below WRIS; IRR loads fewer sets)")
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Table6 reports IRR's logical I/O count as Q.k grows.
func Table6(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 6: number of I/O operations for IRR vs Q.k",
		"dataset", "Q.k", "IRR I/O ops", "partitions")
	for _, f := range []Family{News, Twitter} {
		for _, k := range env.Cfg.KSweep {
			_, irr, _, err := env.runPoint(ctx, f, env.defaultSize(f), env.Cfg.DefaultLen, k, 0, false)
			if err != nil {
				return err
			}
			t.add(string(f), k, fmt.Sprintf("%.1f", irr.io), fmt.Sprintf("%.1f", irr.parts))
		}
	}
	t.addf("(paper: I/O grows with Q.k as more partitions must be fetched)")
	return t.write(w)
}

// Table7 compares the Monte-Carlo influence spread of the seeds returned by
// WRIS, RR (both sizings), and IRR — they must be statistically identical.
// The news rows run on the smallest news graph so the θ̂_w index (which only
// exists at Table 3's sizes) is compared on the SAME dataset as the other
// methods; the twitter rows run on the default twitter graph (the paper
// likewise reports RR(θ̂_w) for news only).
func Table7(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 7: influence spread when varying Q.k (Monte-Carlo evaluation)",
		"dataset", "Q.k", "WRIS", "RR(θ̂_w)", "RR", "IRR")
	newsSize := table3Sizes(env)[0]
	for _, f := range []Family{News, Twitter} {
		size := env.defaultSize(f)
		if f == News {
			size = newsSize
		}
		for _, k := range env.Cfg.KSweep {
			rr, irr, online, err := env.runPoint(ctx, f, size, env.Cfg.DefaultLen, k, 1, true)
			if err != nil {
				return err
			}
			hat := "-"
			if f == News {
				idx, _, herr := env.RRIndex(News, newsSize, wris.SizeThetaHat, codec.Delta)
				if herr != nil {
					return herr
				}
				gHat, profHat, derr := env.Dataset(News, newsSize)
				if derr != nil {
					return derr
				}
				queries, qerr := env.Queries(env.Cfg.QueriesPerPoint, env.Cfg.DefaultLen, k)
				if qerr != nil {
					return qerr
				}
				evalRNG := rng.New(env.Cfg.Seed ^ uint64(k))
				var s float64
				for _, q := range queries {
					res, qerr := idx.QueryCtx(ctx, q)
					if qerr != nil {
						return qerr
					}
					score := func(v uint32) float64 { return profHat.Score(v, q) }
					s += prop.EstimateWeightedSpread(gHat, prop.IC{}, res.Seeds, score,
						env.Cfg.SpreadRounds, evalRNG)
				}
				hat = fmt.Sprintf("%.1f", s/float64(len(queries)))
			}
			t.add(string(f)+fmt.Sprintf("-%d", size), k, fmt.Sprintf("%.1f", online.spread), hat,
				fmt.Sprintf("%.1f", rr.spread), fmt.Sprintf("%.1f", irr.spread))
		}
	}
	t.addf("(paper: almost no difference between methods — the guarantee holds for all)")
	return t.write(w)
}

// Figure6 sweeps the keyword count at the default Q.k.
func Figure6(ctx context.Context, w io.Writer, env *Env) error {
	for _, f := range []Family{News, Twitter} {
		t := newTable(fmt.Sprintf("Figure 6 (%s): vary |Q.T|, Q.k=%d", f, env.Cfg.DefaultK),
			"|Q.T|", "RR-ms", "IRR-ms", "WRIS-ms", "RR-sets", "IRR-sets")
		for _, l := range env.Cfg.LenSweep {
			rr, irr, online, err := env.runPoint(ctx, f, env.defaultSize(f), l, env.Cfg.DefaultK, 1, false)
			if err != nil {
				return err
			}
			t.add(l, ms(rr.seconds), ms(irr.seconds), ms(online.seconds),
				int64(rr.loaded), int64(irr.loaded))
		}
		t.addf("(paper: both indexes stay >=2 orders of magnitude faster than WRIS)")
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Figure7 sweeps the graph size at the default query shape.
func Figure7(ctx context.Context, w io.Writer, env *Env) error {
	for _, f := range []Family{News, Twitter} {
		t := newTable(fmt.Sprintf("Figure 7 (%s): vary |V|, Q.k=%d, |Q.T|=%d",
			f, env.Cfg.DefaultK, env.Cfg.DefaultLen),
			"|V|", "RR-ms", "IRR-ms", "WRIS-ms", "RR-sets", "IRR-sets")
		for _, size := range env.sizes(f) {
			rr, irr, online, err := env.runPoint(ctx, f, size, env.Cfg.DefaultLen, env.Cfg.DefaultK, 1, false)
			if err != nil {
				return err
			}
			t.add(size, ms(rr.seconds), ms(irr.seconds), ms(online.seconds),
				int64(rr.loaded), int64(irr.loaded))
		}
		t.addf("(paper: IRR dominates RR on growing twitter graphs; near-parity on news)")
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Table8 prints example top-8 seeds for two popular keywords under WRIS(IC),
// WRIS(LT), and keyword-blind RIS — the qualitative §6.6 study.
func Table8(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Table 8: example top-8 seeds ('software'=topic0, 'journal'=topic1)",
		"dataset", "method", "keyword", "seeds")
	const k = 8
	for _, f := range []Family{News, Twitter} {
		g, prof, err := env.Dataset(f, env.defaultSize(f))
		if err != nil {
			return err
		}
		cfg := env.queryCfg()
		for _, kw := range []int{0, 1} {
			name := map[int]string{0: "software", 1: "journal"}[kw]
			q := topic.Query{Topics: []int{kw}, K: k}
			for _, model := range []prop.Model{prop.IC{}, prop.LT{}} {
				res, qerr := wris.Query(g, model, prof, q, cfg)
				if qerr != nil {
					return qerr
				}
				t.add(string(f), "WRIS("+model.Name()+")", name, fmt.Sprint(res.Seeds))
			}
		}
		ris, err := wris.QueryRIS(g, prop.IC{}, k, cfg)
		if err != nil {
			return err
		}
		t.add(string(f), "RIS", "(any)", fmt.Sprint(ris.Seeds))
	}
	t.addf("(paper: RIS returns the same seeds regardless of the advertisement)")
	return t.write(w)
}

// AblationPartitionSize sweeps the IRR δ parameter.
func AblationPartitionSize(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Ablation: IRR partition size δ (default query shape)",
		"dataset", "δ", "IRR-ms", "I/O ops", "RR sets loaded")
	for _, f := range []Family{News, Twitter} {
		for _, delta := range []int{10, 100, 1000} {
			idx, _, err := env.IRRIndex(f, env.defaultSize(f), wris.SizeTheta, codec.Delta, delta)
			if err != nil {
				return err
			}
			queries, err := env.Queries(env.Cfg.QueriesPerPoint, env.Cfg.DefaultLen, env.Cfg.DefaultK)
			if err != nil {
				return err
			}
			var sec, io, loaded float64
			for _, q := range queries {
				res, qerr := idx.QueryCtx(ctx, q)
				if qerr != nil {
					return qerr
				}
				sec += res.Elapsed.Seconds()
				io += float64(res.IO.Total())
				loaded += float64(res.NumRRSets)
			}
			n := float64(len(queries))
			t.add(string(f), delta, ms(sec/n), fmt.Sprintf("%.1f", io/n), int64(loaded/n))
		}
	}
	t.addf("(small δ: many tiny random I/Os; large δ: fewer but coarser loads)")
	return t.write(w)
}

// AblationCompression measures the query-time cost of decompression.
func AblationCompression(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Ablation: compression impact on RR query time",
		"dataset", "codec", "RR-ms", "bytes read/query")
	for _, f := range []Family{News, Twitter} {
		for _, comp := range []codec.Compression{codec.Raw, codec.Delta} {
			idx, _, err := env.RRIndex(f, env.defaultSize(f), wris.SizeTheta, comp)
			if err != nil {
				return err
			}
			queries, err := env.Queries(env.Cfg.QueriesPerPoint, env.Cfg.DefaultLen, env.Cfg.DefaultK)
			if err != nil {
				return err
			}
			var sec, bytes float64
			for _, q := range queries {
				res, qerr := idx.QueryCtx(ctx, q)
				if qerr != nil {
					return qerr
				}
				sec += res.Elapsed.Seconds()
				bytes += float64(res.IO.BytesRead)
			}
			n := float64(len(queries))
			t.add(string(f), comp.String(), ms(sec/n), int64(bytes/n))
		}
	}
	t.addf("(compression halves bytes read for a modest decode cost)")
	return t.write(w)
}
