package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kbtim"
)

// testEngine builds a small dataset with both indexes attached and caching
// on.
func testEngine(t *testing.T) *kbtim.Engine {
	t.Helper()
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kbtim.NewEngine(ds, kbtim.Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
		CacheBytes:         1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dir := t.TempDir()
	rrPath := filepath.Join(dir, "t.rr")
	irrPath := filepath.Join(dir, "t.irr")
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
	return eng
}

func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) (*queryResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return &qr, resp
}

func TestServerQueryEndpoint(t *testing.T) {
	srv := NewServer(testEngine(t), 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Discover the queryable universe.
	resp, err := http.Get(ts.URL + "/keywords")
	if err != nil {
		t.Fatal(err)
	}
	var kws struct {
		Topics []int `json:"topics"`
		Count  int   `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kws); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if kws.Count == 0 || len(kws.Topics) != kws.Count {
		t.Fatalf("keywords = %+v", kws)
	}

	for _, strategy := range []string{"irr", "rr", ""} {
		qr, resp := postQuery(t, ts, queryRequest{
			Topics: kws.Topics[:2], K: 3, Strategy: strategy,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %q: status %s", strategy, resp.Status)
		}
		if len(qr.Seeds) != 3 {
			t.Fatalf("strategy %q: %d seeds, want 3", strategy, len(qr.Seeds))
		}
		if qr.EstSpread <= 0 || qr.NumRRSets <= 0 {
			t.Fatalf("strategy %q: empty result %+v", strategy, qr)
		}
		want := strategy
		if want == "" {
			want = "irr"
		}
		if qr.Strategy != want {
			t.Fatalf("strategy echoed as %q, want %q", qr.Strategy, want)
		}
	}

	// Malformed and invalid requests fail without crashing the pool.
	if _, resp := postQuery(t, ts, queryRequest{Topics: []int{999}, K: 1}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown keyword: status %s", resp.Status)
	}
	if _, resp := postQuery(t, ts, queryRequest{Topics: kws.Topics[:1], K: 1, Strategy: "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: status %s", resp.Status)
	}
	r, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %s", r.Status)
	}
}

// TestServerRejectsInvalidInput pins the input-validation contract:
// malformed client requests get a 400 with a JSON error BEFORE dispatch,
// counted in `rejected` — they are not engine errors and must not inflate
// `failed`.
func TestServerRejectsInvalidInput(t *testing.T) {
	srv := NewServer(testEngine(t), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  queryRequest
	}{
		{"zero k", queryRequest{Topics: []int{0}, K: 0}},
		{"negative k", queryRequest{Topics: []int{0}, K: -3}},
		{"no topics", queryRequest{K: 2}},
		{"duplicate topics", queryRequest{Topics: []int{1, 1}, K: 2}},
		{"bad strategy", queryRequest{Topics: []int{0}, K: 2, Strategy: "wris"}},
		{"negative deadline", queryRequest{Topics: []int{0}, K: 2, DeadlineMS: -1}},
		// 1e13 ms overflows a time.Duration; it must not turn into a
		// deadline in the past and an empty partial answer.
		{"overflowing deadline", queryRequest{Topics: []int{0}, K: 2, DeadlineMS: 1e13}},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(mustJSON(t, tc.req)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s, want 400", tc.name, resp.Status)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Fatalf("%s: error body missing (%v)", tc.name, err)
		}
		resp.Body.Close()
	}
	// A syntactically broken body is rejected the same way.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken body: status %s", resp.Status)
	}

	if got := srv.rejected.Load(); got != int64(len(cases))+1 {
		t.Fatalf("rejected = %d, want %d", got, len(cases)+1)
	}
	if got := srv.failed.Load(); got != 0 {
		t.Fatalf("failed = %d, want 0 (client errors are not engine failures)", got)
	}

	// And the split shows up on /stats.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != int64(len(cases))+1 || stats.Failed != 0 {
		t.Fatalf("stats rejected/failed = %d/%d", stats.Rejected, stats.Failed)
	}
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerConcurrentLoad hammers the bounded pool from more goroutines
// than workers; every request must come back correct and none may fail (run
// under -race this also guards the Engine's concurrency story end to end).
// The sharded backend answers a query spanning both shards.
func TestServerConcurrentLoad(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) (backend, []int)
	}{
		{"one engine", func(t *testing.T) (backend, []int) {
			return testEngine(t), []int{0, 1}
		}},
		{"2-shard hash", func(t *testing.T) (backend, []int) {
			ds, opts, rrPath, irrPath := shardedFixture(t, 2)
			be, closeBackend, err := openBackend(ds, opts, rrPath, irrPath, 2, kbtim.ShardHash, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { closeBackend() })
			return be, be.IndexedKeywords()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be, topics := tc.open(t)
			srv := NewServer(be, 2) // pool smaller than client count
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			req := queryRequest{Topics: topics, K: 2}
			want, resp := postQuery(t, ts, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline: %s", resp.Status)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						qr, resp := postQuery(t, ts, req)
						if resp.StatusCode != http.StatusOK {
							t.Errorf("status %s", resp.Status)
							return
						}
						if len(qr.Seeds) != len(want.Seeds) || qr.EstSpread != want.EstSpread {
							t.Errorf("result diverged under load: %+v vs %+v", qr, want)
							return
						}
					}
				}()
			}
			wg.Wait()

			// Stats must reflect the traffic and a warm cache. A handler
			// releases its pool slot only after its reply is on the wire, so
			// the last client can be back here a moment before in_flight
			// drops: wait for that.
			var stats statsResponse
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				sresp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(sresp.Body).Decode(&stats)
				sresp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if stats.InFlight == 0 || time.Now().After(deadline) {
					break
				}
			}
			if stats.Served < 41 || stats.Failed != 0 { // 1 baseline + 40 load
				t.Fatalf("served/failed = %d/%d, want >= 41/0", stats.Served, stats.Failed)
			}
			if stats.Workers != 2 || stats.InFlight != 0 {
				t.Fatalf("pool state = %+v", stats)
			}
			if stats.IRRCache.Hits+stats.IRRDecoded.Hits == 0 {
				t.Fatalf("repeated workload produced no IRR cache hits: %+v / %+v", stats.IRRCache, stats.IRRDecoded)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(testEngine(t), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// TestServerCanceledClients pins the disconnect accounting: a client that
// hangs up while waiting for a pool slot (or mid-query) is counted in
// `canceled`, not `failed`, and no response body is written to the dead
// connection.
func TestServerCanceledClients(t *testing.T) {
	srv := NewServer(testEngine(t), 1)

	// Occupy the only pool slot so the request must queue.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(queryRequest{Topics: []int{0}, K: 1})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	// Let the handler reach the pool wait, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}

	if got := srv.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := srv.failed.Load(); got != 0 {
		t.Fatalf("failed = %d, want 0 (disconnect is not a failure)", got)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("wrote %q to a dead connection", rec.Body.String())
	}

	// The counter is on /stats.
	srec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats statsResponse
	if err := json.NewDecoder(srec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Canceled != 1 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestServerDecodedCacheStats serves from an engine with the decoded-object
// tier enabled: repeated queries must report per-query decoded hits and the
// /stats decoded-cache section must fill in.
func TestServerDecodedCacheStats(t *testing.T) {
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kbtim.NewEngine(ds, kbtim.Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
		DecodedCacheBytes:  8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dir := t.TempDir()
	irrPath := filepath.Join(dir, "t.irr")
	if _, err := eng.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, resp := postQuery(t, ts, queryRequest{Topics: []int{0, 1}, K: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %s", resp.Status)
	}
	warm, resp := postQuery(t, ts, queryRequest{Topics: []int{0, 1}, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %s", resp.Status)
	}
	if warm.IO.DecodedHits == 0 || warm.IO.DecodedMisses != 0 {
		t.Fatalf("warm query decoded traffic: %+v", warm.IO)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.IRRDecoded.Hits == 0 || stats.IRRDecoded.Entries == 0 {
		t.Fatalf("decoded cache stats empty: %+v", stats.IRRDecoded)
	}
}
