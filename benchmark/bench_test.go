package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndSampleRule(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	// Ten samples must lie beyond the percentile: p95 needs 200, p99 1000.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.50, false}, {20, 0.50, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// An open loop charges a stall to every request it delays: with one
// connection and a first request that takes 60 ms at 100 requests/s, request
// i (due at 10·i ms) is sent late and its latency counts from its due time.
func TestOpenLoopCountsFromIntendedSendTime(t *testing.T) {
	l := &loader{bodies: make([][]byte, 100)}
	const stall = 60 * time.Millisecond
	p := l.openLoop("open", 1, 100, 100*time.Millisecond, func(idx int, ref time.Time) sample {
		if idx == 0 {
			time.Sleep(stall)
		}
		return sample{idx: idx, ref: ref, lat: time.Since(ref), status: 200}
	})
	if len(p.samples) != 10 {
		t.Fatalf("%d samples, want 10", len(p.samples))
	}
	if p.intended != 100*time.Millisecond {
		t.Errorf("intended %v, want 100ms", p.intended)
	}
	for i, s := range p.samples {
		if s.idx != i {
			t.Errorf("sample %d has query %d", i, s.idx)
		}
		due := time.Duration(i) * 10 * time.Millisecond
		if want := stall - due; want > 0 {
			// Sent only after the stalled request returned.
			if s.lat < want-time.Millisecond {
				t.Errorf("request %d: latency %v does not include the %v it waited behind the stall", i, s.lat, want)
			}
			if i > 0 && s.late < want-time.Millisecond {
				t.Errorf("request %d: reported %v late, want about %v", i, s.late, want)
			}
		}
	}
	if last := p.samples[9]; last.late > 20*time.Millisecond {
		t.Errorf("request 9 was due after the stall cleared but went %v late", last.late)
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	universe := make([]int, 32)
	for i := range universe {
		universe[i] = i * 2 // IDs need not be dense
	}
	for i := range workloads {
		wl := &workloads[i]
		a, err := generate(wl, universe, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(wl, universe, 7, 3000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different sequences", wl.Name)
		}
		c, _ := generate(wl, universe, 8, 3000)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", wl.Name)
		}
		// A longer sequence extends a shorter one.
		d, _ := generate(wl, universe, 7, 100)
		if !reflect.DeepEqual(a[:100], d) {
			t.Errorf("%s: the first 100 queries depend on how many are generated", wl.Name)
		}
		window := len(universe)
		if wl.ChurnEvery > 0 {
			window = (window + 1) / 2
		}
		for j, q := range a {
			if len(q.Topics) < wl.MinKw || len(q.Topics) > wl.MaxKw || q.K != wl.K {
				t.Fatalf("%s query %d: %d keywords, k=%d", wl.Name, j, len(q.Topics), q.K)
			}
			if q.Strategy != wl.Strategies[j%len(wl.Strategies)] {
				t.Fatalf("%s query %d: strategy %q", wl.Name, j, q.Strategy)
			}
			seen := map[int]bool{}
			for _, w := range q.Topics {
				if seen[w] {
					t.Fatalf("%s query %d repeats topic %d", wl.Name, j, w)
				}
				seen[w] = true
				// The churn window is a function of the query INDEX alone.
				offset := 0
				if wl.ChurnEvery > 0 {
					offset = (j / wl.ChurnEvery) * (window / 2)
				}
				pos := (w/2 - offset%len(universe) + len(universe)) % len(universe)
				if w%2 != 0 || pos >= window {
					t.Fatalf("%s query %d: topic %d outside the active window at offset %d", wl.Name, j, w, offset)
				}
			}
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "index", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "read", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "read", Start: 40, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "read", Start: 85, End: 95}, // outlives its parent
	}
	self := selfTimes(spans)
	if self["query"] != 20 || self["index"] != 80-40-5 || self["read"] != 30+20+10 {
		t.Errorf("self times %v", self)
	}
}

// TestSmoke runs both kinds of run end to end on a tiny dataset and checks
// that every metric BENCHMARK.json names comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds kbtim-serve and starts servers")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}

	work := t.TempDir()
	bin, err := buildServer(root, work)
	if err != nil {
		t.Fatal(err)
	}
	ps := newProcs()
	defer ps.stopAll()
	tiny := sizing{Users: 400, Degree: 6, Topics: 8, DatasetSeed: 3, Epsilon: 0.5, K: 10, Delta: 10, MaxTheta: 3000, EngineSeed: 1}
	wl := workloads[3] // churn_sharded: both strategies, shards, k ≤ the tiny K
	wl.OpenRate = 200
	start := time.Now()
	for trace, want := range [][]struct{ Name string }{doc.EndToEnd, doc.PerLayer} {
		c := &runConfig{wl: &wl, sz: tiny, seed: 1, seconds: 1, workDir: filepath.Join(work, fmt.Sprint("run", trace)),
			outDir: filepath.Join(work, "out"), bin: bin, ps: ps}
		run := runEndToEnd
		if trace == 1 {
			run = runTraced
		}
		out, err := run(context.Background(), c)
		if err != nil {
			t.Fatalf("trace=%d: %v", trace, err)
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("trace=%d: %d metrics printed, BENCHMARK.json names %d", trace, len(out.Metrics), len(want))
		}
		for _, w := range want {
			name := w.Name
			m, ok := out.Metrics[name]
			if !ok {
				t.Errorf("trace=%d: metric %q missing from the output", trace, name)
			} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace=%d: metric %q is %v", trace, name, m.Value)
			}
		}
		if trace == 0 && !out.Correct {
			t.Errorf("end-to-end run failed %d of %d operations: %v", out.Failed, out.Attempted, out.Detail["failures"])
		}
	}
	if _, err := os.Stat(filepath.Join(work, "out", "trace-churn_sharded.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	t.Logf("smoke took %v", time.Since(start))
}
