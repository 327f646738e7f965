package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// tinyConfig shrinks everything so the whole experiment registry runs in a
// few seconds inside the unit-test suite.
func tinyConfig() Config {
	return Config{
		Full:            false,
		Topics:          4,
		Epsilon:         0.5,
		K:               10,
		MaxTheta:        4000,
		PartitionSize:   5,
		NewsSizes:       []int{200, 400},
		NewsDegrees:     []float64{4, 3},
		TwitterSizes:    []int{200, 400},
		TwitterDegrees:  []float64{8, 6},
		DefaultNews:     1,
		DefaultTwitter:  1,
		KSweep:          []int{2, 5},
		LenSweep:        []int{1, 2},
		DefaultK:        3,
		DefaultLen:      2,
		QueriesPerPoint: 2,
		SpreadRounds:    50,
		Seed:            5,
	}
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Errorf("env close: %v", err)
		}
	})
	return env
}

// TestAllExperimentsRun executes the complete registry at toy scale: every
// table/figure must render without error and produce non-trivial output.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	env := tinyEnv(t)
	for _, e := range Experiments {
		var buf bytes.Buffer
		if err := e.Run(t.Context(), &buf, env); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.Contains(out, "==") {
			t.Fatalf("%s produced no table header:\n%s", e.ID, out)
		}
		if len(strings.Split(out, "\n")) < 4 {
			t.Fatalf("%s produced a suspiciously short table:\n%s", e.ID, out)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table7"); !ok {
		t.Fatal("table7 missing from registry")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestEnvCachesDatasetsAndIndexes(t *testing.T) {
	env := tinyEnv(t)
	g1, p1, err := env.Dataset(News, 200)
	if err != nil {
		t.Fatal(err)
	}
	g2, p2, err := env.Dataset(News, 200)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || p1 != p2 {
		t.Fatal("dataset not cached")
	}
	if _, _, err := env.Dataset(News, 777); err == nil {
		t.Fatal("size outside sweep accepted")
	}
	idx1, ent1, err := env.RRIndex(News, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx2, ent2, err := env.RRIndex(News, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx1 != idx2 || ent1 != ent2 {
		t.Fatal("index not cached")
	}
}

func TestQueriesDeterministic(t *testing.T) {
	env := tinyEnv(t)
	a, err := env.Queries(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Queries(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].K != b[i].K || len(a[i].Topics) != len(b[i].Topics) {
			t.Fatal("query workload not deterministic")
		}
		for j := range a[i].Topics {
			if a[i].Topics[j] != b[i].Topics[j] {
				t.Fatal("query workload not deterministic")
			}
		}
	}
}

func TestDefaultConfigShapes(t *testing.T) {
	quick := DefaultConfig(false)
	full := DefaultConfig(true)
	if len(full.KSweep) <= len(quick.KSweep) {
		t.Fatal("full config does not widen the k sweep")
	}
	if len(quick.NewsSizes) != len(quick.NewsDegrees) ||
		len(quick.TwitterSizes) != len(quick.TwitterDegrees) {
		t.Fatal("size/degree sweeps misaligned")
	}
	if quick.DefaultNews >= len(quick.NewsSizes) || quick.DefaultTwitter >= len(quick.TwitterSizes) {
		t.Fatal("default indexes out of range")
	}
}

func TestTableRenderer(t *testing.T) {
	tb := newTable("demo", "a", "bb")
	tb.add("x", 1)
	tb.add(2.5, int64(7))
	tb.addf("note %d", 9)
	var buf bytes.Buffer
	if err := tb.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "x", "note 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if _, err := io.WriteString(io.Discard, out); err != nil {
		t.Fatal(err)
	}
}
