package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's exported API, recorded from outside
// the layer. Spans of one replayed query share its sequence index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Query  int    `json:"query"`  // query-sequence index; -1 outside the replay
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the same code minus the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int // innermost open span of the driving goroutine, -1 when none
	query int // sequence index the open spans belong to
	// paused drops leaf spans: the replay's warm-up queries run through the
	// same probes but are not part of the trace.
	paused bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1, query: -1} }

// begin opens a span under the innermost open one and makes it innermost.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Query: t.query, Name: name, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// end closes span id and makes its parent innermost again.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.cur = t.spans[id].Parent
}

// leaf records a finished call as a child of the innermost open span. Unlike
// begin/end it is safe from the goroutines a layer starts on its own (the
// index packages read artifacts in parallel), which is why their spans may
// overlap and self time subtracts the UNION of the children.
func (t *tracer) leaf(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.cur, Query: t.query, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// pause turns leaf recording off or back on.
func (t *tracer) pause(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.paused = on
	t.mu.Unlock()
}

// setQuery labels the spans opened from now on with a sequence index.
func (t *tracer) setQuery(idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.query = idx
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// totals returns, per span name, the summed duration and the span count.
func totals(spans []span) (map[string]time.Duration, map[string]int) {
	dur, n := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += time.Duration(s.End - s.Start)
		n[s.Name]++
	}
	return dur, n
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
