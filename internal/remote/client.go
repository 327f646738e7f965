package remote

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"kbtim/internal/diskio"
)

// ErrNotServed reports that the node answered but does not serve the
// requested artifact (the batch reply's "not served" status) — "that node has
// no such index/keyword", as opposed to the node being unreachable. Routers
// probe index kinds with it.
var ErrNotServed = errors.New("remote: artifact not served")

// maxArtifactBytes caps one artifact response. Artifacts are bounded by the
// index file, so the cap only guards against a confused or hostile peer
// streaming forever.
const maxArtifactBytes = 1 << 30

// WireStats is a snapshot of a client's cumulative transfer counters.
type WireStats struct {
	// Fetches is the number of batch round trips that returned 200.
	Fetches int64
	// Bytes is the total payload bytes those fetches carried.
	Bytes int64
	// BatchedUnits is the number of artifact units delivered inside batch
	// replies. BatchedUnits/Fetches is the units-per-request ratio a healthy
	// batching deployment keeps well above 1.
	BatchedUnits int64
}

// Add returns the element-wise sum of two snapshots.
func (w WireStats) Add(o WireStats) WireStats {
	w.Fetches += o.Fetches
	w.Bytes += o.Bytes
	w.BatchedUnits += o.BatchedUnits
	return w
}

// Client fetches index artifacts from one serving node. It is safe for
// concurrent use; every open index created through it shares the client's
// transfer counters, so a router can report per-backend wire traffic.
type Client struct {
	batchBase string // ".../internal/artifacts"
	hc        *http.Client

	fetches      atomic.Int64
	bytes        atomic.Int64
	batchedUnits atomic.Int64
}

// NewTransport returns an http.Transport tuned for artifact traffic to a
// small, fixed set of backends: every fetch round should ride an already-warm
// connection, so the per-host idle pool must hold the router's full fetch
// parallelism (the stock http.DefaultTransport keeps only 2 idle connections
// per host and silently closes the rest, re-paying TCP setup every round).
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // unlimited pool overall; the per-host bound governs
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// NewClient returns a client against the node at base (e.g.
// "http://host:8080" — BatchPath is appended). hc may be nil for a
// default client with a 30s timeout over a keep-alive transport
// (NewTransport); routers multiplexing many spanning queries should pass
// their own shared tuned client.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()}
	}
	return &Client{batchBase: base + BatchPath, hc: hc}
}

// Stats returns the cumulative wire counters.
func (c *Client) Stats() WireStats {
	return WireStats{
		Fetches:      c.fetches.Load(),
		Bytes:        c.bytes.Load(),
		BatchedUnits: c.batchedUnits.Load(),
	}
}

// stubReader backs a remote-opened index: it serves the already-fetched
// prelude to Open's header/directory reads and reports the advertised file
// size for offset validation. Payload reads never reach it — they go
// through the fetcher — so anything past the prelude is an error, loudly
// catching any future read path that forgot to be fetch-aware.
type stubReader struct {
	prelude []byte
	size    int64
	counter *diskio.Counter
}

func (s *stubReader) ReadSegment(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(s.prelude)) {
		return nil, fmt.Errorf("remote: segment [%d,%d) outside the fetched prelude (%d bytes) — remote indexes read payloads through the fetcher only",
			off, off+length, len(s.prelude))
	}
	b := make([]byte, length)
	copy(b, s.prelude[off:off+length])
	return b, nil
}

func (s *stubReader) Size() int64              { return s.size }
func (s *stubReader) Counter() *diskio.Counter { return s.counter }
