package kbtim

import (
	"math"
	"path/filepath"
	"testing"
)

// exampleDataset is the paper's Figure 1 running example through the public
// API.
func exampleDataset(t testing.TB) *Dataset {
	t.Helper()
	const (
		a, b, c, d, e, f, g = 0, 1, 2, 3, 4, 5, 6
		music, book         = 0, 1
		sport, car          = 2, 3
	)
	ds, err := NewDataset(7, 4,
		[]Edge{
			{From: e, To: a}, {From: e, To: b}, {From: g, To: b},
			{From: e, To: c}, {From: b, To: c},
			{From: b, To: d}, {From: f, To: d},
		},
		[][3]float64{
			{a, music, 0.6}, {a, book, 0.2}, {a, sport, 0.1}, {a, car, 0.1},
			{b, music, 0.5}, {b, book, 0.5},
			{c, music, 0.5}, {c, book, 0.3}, {c, car, 0.2},
			{d, sport, 0.2}, {d, book, 0.2},
			{e, music, 0.3}, {e, book, 0.3}, {e, sport, 0.4},
			{f, car, 1.0},
			{g, book, 1.0},
		})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func exampleOptions() Options {
	return Options{
		Epsilon:            0.3,
		K:                  5,
		PilotSets:          800,
		MaxThetaPerKeyword: 20000,
		Seed:               17,
		Workers:            2,
	}
}

func TestEndToEndAllStrategies(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(ds, exampleOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	dir := t.TempDir()
	rrPath := filepath.Join(dir, "ads.rr")
	irrPath := filepath.Join(dir, "ads.irr")
	rrReport, err := eng.BuildRRIndex(rrPath)
	if err != nil {
		t.Fatal(err)
	}
	irrReport, err := eng.BuildIRRIndex(irrPath)
	if err != nil {
		t.Fatal(err)
	}
	if rrReport.Keywords != 4 || irrReport.Keywords != 4 {
		t.Fatalf("keyword counts %d / %d", rrReport.Keywords, irrReport.Keywords)
	}
	if rrReport.SumTheta != irrReport.SumTheta {
		t.Fatalf("Σθ differs across indexes: %d vs %d", rrReport.SumTheta, irrReport.SumTheta)
	}
	if err := eng.OpenRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}

	q := Query{Topics: []int{0, 1}, K: 2}
	wrisRes, err := eng.QueryWRIS(q)
	if err != nil {
		t.Fatal(err)
	}
	rrRes, err := eng.QueryRR(q)
	if err != nil {
		t.Fatal(err)
	}
	irrRes, err := eng.QueryIRR(q)
	if err != nil {
		t.Fatal(err)
	}
	// All three carry the same guarantee; their MC-evaluated spreads must
	// agree closely (the Table 7 phenomenon).
	const rounds = 60000
	sw, err := eng.EvaluateSpread(wrisRes.Seeds, q, rounds)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := eng.EvaluateSpread(rrRes.Seeds, q, rounds)
	if err != nil {
		t.Fatal(err)
	}
	si, err := eng.EvaluateSpread(irrRes.Seeds, q, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{sw, sr}, {sr, si}} {
		if math.Abs(pair[0]-pair[1]) > 0.15*math.Max(pair[0], pair[1]) {
			t.Fatalf("spreads disagree: WRIS %v, RR %v, IRR %v", sw, sr, si)
		}
	}
	// RR reads sequentially, IRR randomly (partitions).
	if rrRes.IO.Total() == 0 || irrRes.IO.Total() == 0 {
		t.Fatal("index queries recorded no I/O")
	}
	if irrRes.PartitionsLoaded == 0 {
		t.Fatal("IRR loaded no partitions")
	}
}

func TestRISIgnoresKeywords(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(ds, exampleOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.QueryRIS(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds %v", res.Seeds)
	}
	reach, err := eng.EvaluateReach(res.Seeds, 50000)
	if err != nil {
		t.Fatal(err)
	}
	// OPT_2 = 4.8125 (Example 2); the guarantee gives ≥ (1−1/e−ε)·OPT.
	if reach < (1-1/math.E-0.3)*4.8125 {
		t.Fatalf("RIS reach %v below guarantee", reach)
	}
}

func TestLTEngine(t *testing.T) {
	ds := exampleDataset(t)
	opts := exampleOptions()
	opts.Model = LT
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.QueryWRIS(Query{Topics: []int{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds %v", res.Seeds)
	}
}

func TestGenerateDatasetFamilies(t *testing.T) {
	tw, err := GenerateDataset(DatasetSpec{
		Kind: TwitterLike, NumUsers: 2000, AvgDegree: 8, NumTopics: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	news, err := GenerateDataset(DatasetSpec{
		Kind: NewsLike, NumUsers: 2000, AvgDegree: 2.5, NumTopics: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tw.AvgDegree() <= news.AvgDegree() {
		t.Fatalf("twitter-like (%v) not denser than news-like (%v)",
			tw.AvgDegree(), news.AvgDegree())
	}
	degs, counts := tw.InDegreeDistribution()
	if len(degs) == 0 || len(degs) != len(counts) {
		t.Fatal("degree distribution empty")
	}
	if _, err := GenerateDataset(DatasetSpec{Kind: "bogus", NumUsers: 10, NumTopics: 2}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestSaveLoadDataset(t *testing.T) {
	ds := exampleDataset(t)
	dir := t.TempDir()
	gp, pp := filepath.Join(dir, "g.bin"), filepath.Join(dir, "p.bin")
	if err := SaveDataset(ds, gp, pp); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadDataset(gp, pp)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumUsers() != 7 || ds2.NumEdges() != 7 || ds2.NumTopics() != 4 {
		t.Fatalf("reloaded dataset %d/%d/%d", ds2.NumUsers(), ds2.NumEdges(), ds2.NumTopics())
	}
	q := Query{Topics: []int{0}, K: 1}
	if ds.Score(1, q) != ds2.Score(1, q) {
		t.Fatal("scores changed across save/load")
	}
}

func TestEngineValidation(t *testing.T) {
	ds := exampleDataset(t)
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewEngine(ds, Options{Model: "bogus"}); err == nil {
		t.Fatal("bogus model accepted")
	}
	if _, err := NewEngine(ds, Options{Epsilon: 3}); err == nil {
		t.Fatal("epsilon 3 accepted")
	}
	eng, err := NewEngine(ds, exampleOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryRR(Query{Topics: []int{0}, K: 1}); err == nil {
		t.Fatal("QueryRR without open index accepted")
	}
	if _, err := eng.QueryIRR(Query{Topics: []int{0}, K: 1}); err == nil {
		t.Fatal("QueryIRR without open index accepted")
	}
	if _, err := eng.EvaluateSpread(nil, Query{Topics: []int{0}, K: 1}, 0); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if err := eng.OpenRRIndex(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing index file accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(ds, Options{MaxThetaPerKeyword: 500, PilotSets: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: ε=0.1, K=100, IC. Query under the cap (reported as capped
	// because θ for ε=0.1 on 7 nodes is enormous).
	res, err := eng.QueryWRIS(Query{Topics: []int{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ThetaCapped {
		t.Fatal("tight cap not reported")
	}
}

func TestLTIndexEndToEnd(t *testing.T) {
	ds := exampleDataset(t)
	opts := exampleOptions()
	opts.Model = LT
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	rrPath := filepath.Join(dir, "lt.rr")
	irrPath := filepath.Join(dir, "lt.irr")
	if _, err := eng.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	q := Query{Topics: []int{0, 1}, K: 2}
	a, err := eng.QueryRR(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.QueryIRR(q)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 3 through the public API, under LT.
	if math.Abs(a.EstSpread-b.EstSpread) > 1e-9 {
		t.Fatalf("LT spreads differ: %v vs %v", a.EstSpread, b.EstSpread)
	}
	sa, err := eng.EvaluateSpread(a.Seeds, q, 40000)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eng.EvaluateSpread(b.Seeds, q, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sa-sb) > 0.1*math.Max(sa, sb)+0.05 {
		t.Fatalf("LT MC spreads diverge: %v vs %v", sa, sb)
	}
}

func TestRebuildOverwritesOpenIndex(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(ds, exampleOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "ads.rr")
	if _, err := eng.BuildRRIndex(path); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenRRIndex(path); err != nil {
		t.Fatal(err)
	}
	// Re-open over an already-open index: the old handle must be released
	// and queries must keep working.
	if err := eng.OpenRRIndex(path); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryRR(Query{Topics: []int{0}, K: 1}); err != nil {
		t.Fatal(err)
	}
}

// An index records the |V| and |T| it was sampled over; an engine must refuse
// one built for another dataset, for both kinds, rather than answer queries
// over vertex and topic IDs that mean something else.
func TestOpenRefusesIndexOfAnotherDataset(t *testing.T) {
	opts := exampleOptions()
	opts.MaxThetaPerKeyword = 500
	builder, err := NewEngine(exampleDataset(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	dir := t.TempDir()
	rrPath, irrPath := filepath.Join(dir, "ads.rr"), filepath.Join(dir, "ads.irr")
	if _, err := builder.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{8, 4}, {6, 4}, {7, 5}, {7, 3}} {
		ds, err := NewDataset(shape[0], shape[1], []Edge{{From: 0, To: 1}}, [][3]float64{{0, 0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenRRIndex(rrPath); err == nil {
			t.Errorf("%d users, %d topics: RR index of 7 users, 4 topics accepted", shape[0], shape[1])
		}
		if err := eng.OpenIRRIndex(irrPath); err == nil {
			t.Errorf("%d users, %d topics: IRR index of 7 users, 4 topics accepted", shape[0], shape[1])
		}
		if _, err := eng.QueryRR(Query{Topics: []int{0}, K: 1}); err == nil {
			t.Errorf("%d users, %d topics: refused RR index left attached", shape[0], shape[1])
		}
		eng.Close()
	}
}
