package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/objcache"
)

// postQueryStream drives /query?stream=1 and splits the NDJSON reply into
// the per-seed records and the terminal batch record. A terminal error
// line fails the test.
func postQueryStream(t *testing.T, ts *httptest.Server, req queryRequest) ([]streamSeedRecord, *queryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		t.Fatalf("stream query: %s: %s", resp.Status, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream reply Content-Type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var seeds []streamSeedRecord
	var final *queryResponse
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Done {
			if probe.Error != "" {
				t.Fatalf("stream terminal error: %s", probe.Error)
			}
			if final != nil {
				t.Fatal("two terminal records on one stream")
			}
			final = &queryResponse{}
			if err := json.Unmarshal(raw, final); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if final != nil {
			t.Fatal("seed record after the terminal record")
		}
		var sr streamSeedRecord
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, sr)
	}
	if final == nil {
		t.Fatal("stream ended without a terminal record")
	}
	return seeds, final
}

// TestServerStreamQuery: the NDJSON stream's seed records, concatenated,
// are exactly the batch reply for the same query, and the terminal record
// IS the batch reply.
func TestServerStreamQuery(t *testing.T) {
	srv := NewServer(testEngine(t), 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, strategy := range []string{"irr", "rr"} {
		req := queryRequest{Topics: []int{0, 1}, K: 3, Strategy: strategy}
		batch, resp := postQuery(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %s", strategy, resp.Status)
		}
		recs, final := postQueryStream(t, ts, req)
		var seeds []uint32
		var marginals []int
		for _, r := range recs {
			seeds = append(seeds, r.Seed)
			marginals = append(marginals, r.Marginal)
		}
		if !reflect.DeepEqual(seeds, batch.Seeds) || !reflect.DeepEqual(marginals, batch.Marginals) {
			t.Fatalf("%s: streamed (%v,%v) != batch (%v,%v)", strategy, seeds, marginals, batch.Seeds, batch.Marginals)
		}
		if !reflect.DeepEqual(final.Seeds, batch.Seeds) || final.EstSpread != batch.EstSpread ||
			final.NumRRSets != batch.NumRRSets || final.Partial {
			t.Fatalf("%s: terminal record %+v != batch %+v", strategy, final, batch)
		}
	}
}

// TestServerGenerousDeadline: a deadline_ms comfortably larger than the
// query needs is invisible — identical full answer, partial false, and the
// deadline_partial counter stays 0.
func TestServerGenerousDeadline(t *testing.T) {
	srv := NewServer(testEngine(t), 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := queryRequest{Topics: []int{0, 1}, K: 3, Strategy: "irr"}
	batch, _ := postQuery(t, ts, req)
	req.DeadlineMS = 60_000
	withDeadline, resp := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if withDeadline.Partial {
		t.Fatal("generous deadline marked the reply partial")
	}
	if !reflect.DeepEqual(withDeadline.Seeds, batch.Seeds) || withDeadline.EstSpread != batch.EstSpread {
		t.Fatal("generous deadline changed the answer")
	}
	if got := getStats(t, ts).DeadlinePartial; got != 0 {
		t.Fatalf("deadline_partial = %d, want 0", got)
	}
}

func getStats(t *testing.T, ts *httptest.Server) *statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// anytimeFake is a deterministic backend for the server-side anytime
// plumbing: it emits a fixed seed sequence through the sink and reports
// Partial exactly when the call carried a deadline, so the tests can pin
// the partial marker, the deadline_partial counter, and mid-stream error
// handling without racing a real engine against a clock.
type anytimeFake struct {
	emitErr bool // return an error after emitting one seed
	empty   bool // the deadline expired before the first certified seed
}

func (f *anytimeFake) query(so kbtim.StreamOptions) (*kbtim.Result, error) {
	if f.empty {
		return &kbtim.Result{Partial: true}, nil
	}
	seeds := []kbtim.Seed{7, 3}
	marginals := []int{5, 2}
	for i := range seeds {
		if so.Emit != nil {
			so.Emit(seeds[i], marginals[i], float64(i+1))
		}
		if f.emitErr {
			return nil, errors.New("disk fell over mid-query")
		}
	}
	return &kbtim.Result{
		Seeds:     seeds,
		Marginals: marginals,
		EstSpread: 2,
		NumRRSets: 10,
		Partial:   !so.Deadline.IsZero(),
	}, nil
}

func (f *anytimeFake) Query(_ context.Context, _ kbtim.Strategy, _ kbtim.Query, so kbtim.StreamOptions) (*kbtim.Result, error) {
	return f.query(so)
}

func (f *anytimeFake) IndexedKeywords() []int { return []int{0, 1} }
func (f *anytimeFake) CacheStats() (diskio.CacheStats, diskio.CacheStats) {
	return diskio.CacheStats{}, diskio.CacheStats{}
}
func (f *anytimeFake) DecodedCacheStats() (objcache.Stats, objcache.Stats) {
	return objcache.Stats{}, objcache.Stats{}
}

// TestServerDeadlinePartialCounter: a reply the backend marks Partial
// carries partial=true on the wire and bumps deadline_partial in /stats —
// for the per-request deadline_ms knob and the -deadline server default
// alike.
func TestServerDeadlinePartialCounter(t *testing.T) {
	srv := NewServer(&anytimeFake{}, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qr, resp := postQuery(t, ts, queryRequest{Topics: []int{0}, K: 2, DeadlineMS: 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if !qr.Partial {
		t.Fatal("deadline-cut reply not marked partial")
	}
	if got := getStats(t, ts).DeadlinePartial; got != 1 {
		t.Fatalf("deadline_partial = %d, want 1", got)
	}

	// No per-request deadline, but a server default: same degradation.
	srv.SetDefaultDeadline(time.Second)
	if qr, _ := postQuery(t, ts, queryRequest{Topics: []int{0}, K: 2}); !qr.Partial {
		t.Fatal("server-default deadline did not reach the backend")
	}
	if got := getStats(t, ts).DeadlinePartial; got != 2 {
		t.Fatalf("deadline_partial = %d, want 2", got)
	}

	// A deadline that expires before the first certified seed still answers
	// a certified prefix — the empty one, [] and never null — in the batch
	// body and the NDJSON terminal record alike.
	empty := httptest.NewServer(NewServer(&anytimeFake{empty: true}, 2).Handler())
	defer empty.Close()
	body, _ := json.Marshal(queryRequest{Topics: []int{0}, K: 2, DeadlineMS: 1})
	for _, path := range []string{"/query", "/query?stream=1"} {
		resp, err := http.Post(empty.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"seeds":[]`)) || !bytes.Contains(raw, []byte(`"partial":true`)) {
			t.Fatalf("%s: empty partial answered %s %s, want 200 with \"seeds\":[] and partial=true", path, resp.Status, raw)
		}
	}
}

// TestServerStreamMidstreamError: once seeds have streamed the 200 is
// committed, so a late failure must arrive as a terminal
// {"done":true,"error":...} record, count as failed, and not as served.
func TestServerStreamMidstreamError(t *testing.T) {
	srv := NewServer(&anytimeFake{emitErr: true}, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Topics: []int{0}, K: 2})
	resp, err := http.Post(ts.URL+"/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s (the stream had already started)", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	sawSeed, sawErr := false, false
	for {
		var rec struct {
			Seed  *uint32 `json:"seed"`
			Done  bool    `json:"done"`
			Error string  `json:"error"`
		}
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
		switch {
		case rec.Done:
			if rec.Error == "" {
				t.Fatal("terminal record after a failure carries no error")
			}
			sawErr = true
		case rec.Seed != nil:
			sawSeed = true
		}
	}
	if !sawSeed || !sawErr {
		t.Fatalf("stream: sawSeed=%v sawErr=%v, want both", sawSeed, sawErr)
	}
	st := getStats(t, ts)
	if st.Failed != 1 || st.Served != 0 {
		t.Fatalf("failed=%d served=%d, want 1/0", st.Failed, st.Served)
	}
}
