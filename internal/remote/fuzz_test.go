package remote_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"kbtim/internal/artifact"
	"kbtim/internal/remote"
)

// replyStub answers every request with one canned batch reply whose
// declared Content-Length is whatever the fuzzer chose — a transport, unlike
// a real server, can lie about it.
type replyStub struct {
	body     []byte
	declared int64
}

func (s replyStub) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Body.Close()
	h := http.Header{}
	h.Set("X-Kbtim-Artifact-Version", strconv.Itoa(remote.BatchVersion))
	h.Set("X-Kbtim-Index-Size", "4096")
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		ContentLength: s.declared,
		Body:          io.NopCloser(bytes.NewReader(s.body)),
		Request:       r,
	}, nil
}

// FuzzFetchBatch feeds Client.FetchBatch arbitrary reply bodies, unit counts
// and declared lengths. It must never panic, never return more replies than
// units asked for, return an error whenever it returns fewer, and allocate
// no more than a small multiple of the bytes the peer actually sent (plus a
// constant for the request and one bounded read step) — whatever length the
// peer declared.
func FuzzFetchBatch(f *testing.F) {
	// TestFetchBatchHostileLength's cases: a good record followed by one
	// claiming 1 GiB in a 12-byte body, with the length declared truthfully
	// and not at all.
	hostile := binary.AppendUvarint([]byte{0, 3, 'a', 'b', 'c', 0}, 1<<30)
	hostile = append(hostile, 'x')
	f.Add(hostile, uint16(2), int64(len(hostile)))
	f.Add(hostile, uint16(2), int64(-1))
	f.Add([]byte{0, 3, 'a', 'b', 'c', 1, 2, 'n', 's', 2, 1, 'f'}, uint16(3), int64(12))

	f.Fuzz(func(t *testing.T, body []byte, units uint16, declared int64) {
		n := int(units)%4096 + 1
		reqs := make([]artifact.Request, n)
		for i := range reqs {
			reqs[i] = artifact.Request{Unit: "inv", Topic: i}
		}
		cl := remote.NewClient("http://node", &http.Client{Transport: replyStub{body: body, declared: declared}})

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replies, _, err := cl.FetchBatch(context.Background(), remote.KindRR, reqs)
		runtime.ReadMemStats(&after)

		if len(replies) > n {
			t.Fatalf("%d replies for %d units", len(replies), n)
		}
		if len(replies) < n && err == nil {
			t.Fatalf("%d replies for %d units and no error", len(replies), n)
		}
		limit := uint64(4*len(body)) + uint64(512*n) + 2<<20
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("a %d-byte reply declaring %d bytes made the client allocate %d bytes (limit %d)",
				len(body), declared, grew, limit)
		}
	})
}
