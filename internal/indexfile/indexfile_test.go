package indexfile

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/topic"
)

// handle is the smallest Handle: what rrindex.Index and irrindex.Index are to
// Resolve.
type handle struct{ File }

// payload is the bytes behind the synthetic file's prelude frame.
const payload = "0123456789abcdef"

// openSynthetic opens a file that is just a frame plus payload, indexing
// keywords 0 and 1 over a 2-topic space.
func openSynthetic(t *testing.T) *handle {
	t.Helper()
	data := append([]byte("TEST"), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(data[4:], 7)
	binary.LittleEndian.PutUint64(data[8:], frameLen)
	data = append(data, payload...)
	f, br, err := Open(diskio.NewMem(data, nil), "test", "TEST", 7)
	if err != nil {
		t.Fatal(err)
	}
	if br.Remaining() != 0 {
		t.Fatalf("reader has %d bytes past an empty header", br.Remaining())
	}
	h := &handle{File: f}
	h.Shape = Shape{NumVertices: 10, NumTopics: 2, K: 5}
	h.AddKeyword(Keyword{TopicID: 0, ThetaW: 100, Phi: 1})
	h.AddKeyword(Keyword{TopicID: 1, ThetaW: 50, Phi: 3})
	return h
}

// fakeFetcher serves extents of payload by Aux (offset) and Topic (length),
// recording every batch it is asked for.
type fakeFetcher struct {
	calls [][]artifact.Request
	fail  map[artifact.Request]error
}

func (f *fakeFetcher) FetchBatch(_ context.Context, reqs []artifact.Request) []artifact.Reply {
	f.calls = append(f.calls, append([]artifact.Request(nil), reqs...))
	out := make([]artifact.Reply, len(reqs))
	for i, r := range reqs {
		if err := f.fail[r]; err != nil {
			out[i].Err = err
			continue
		}
		out[i].Payload = []byte(payload[r.Aux : r.Aux+int64(r.Topic)])
	}
	return out
}

// TestArtifactOneSeam walks the choke point's three sources — local read,
// stash, wire — and the checks they share.
func TestArtifactOneSeam(t *testing.T) {
	ctx := context.Background()
	q := topic.Query{Topics: []int{0}, K: 1}
	owner := func(h *handle) func(int) *handle { return func(int) *handle { return h } }
	unit := func(off, n int) artifact.Request { return artifact.Request{Unit: "u", Topic: n, Aux: int64(off)} }

	local := openSynthetic(t)
	rq, err := Resolve("test", owner(local), q)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Remote() {
		t.Fatal("local file resolved as remote")
	}
	rq.Want(0, unit(0, 4)) // a no-op on a local file
	rq.Fetch(ctx)
	b, err := local.Artifact(ctx, rq.Reader(0), unit(2, 4), frameLen+2, 4)
	if err != nil || string(b) != "2345" {
		t.Fatalf("local read = %q, %v", b, err)
	}
	if io := rq.IO(); io.BytesRead != 4 {
		t.Fatalf("local read recorded %+v", io)
	}

	remote := openSynthetic(t)
	wire := &fakeFetcher{fail: map[artifact.Request]error{}}
	remote.SetFetcher(wire)
	if rq, err = Resolve("test", owner(remote), q); err != nil {
		t.Fatal(err)
	}
	r := rq.Reader(0)
	// A stash miss is a one-element batch.
	if b, err = remote.Artifact(ctx, r, unit(2, 4), frameLen+2, 4); err != nil || string(b) != "2345" {
		t.Fatalf("stash miss = %q, %v", b, err)
	}
	// A one-unit plan is a one-element batch too, and its payload is consumed
	// from the stash exactly once.
	rq.Want(0, unit(6, 3))
	if rq.Stashed(0, unit(6, 3)) {
		t.Fatal("unit stashed before Fetch")
	}
	rq.Fetch(ctx)
	if !rq.Stashed(0, unit(6, 3)) {
		t.Fatal("Fetch did not stash a one-unit plan")
	}
	if b, err = remote.Artifact(ctx, r, unit(6, 3), frameLen+6, 3); err != nil || string(b) != "678" {
		t.Fatalf("stash hit = %q, %v", b, err)
	}
	if rq.Stashed(0, unit(6, 3)) {
		t.Fatal("consumed unit still stashed")
	}
	rq.Fetch(ctx) // nothing queued: no round trip
	want := [][]artifact.Request{{unit(2, 4)}, {unit(6, 3)}}
	if !reflect.DeepEqual(wire.calls, want) {
		t.Fatalf("wire saw %v, want %v", wire.calls, want)
	}
	if io := rq.IO(); io.BytesRead != 7 {
		t.Fatalf("remote reads recorded %+v, want the 7 payload bytes", io)
	}
	// The directory-length check covers stash and wire alike.
	if _, err = remote.Artifact(ctx, r, unit(0, 4), frameLen, 5); err == nil || !strings.Contains(err.Error(), "directory says 5") {
		t.Fatalf("short wire payload: %v", err)
	}
	rq.Want(0, unit(0, 4))
	rq.Fetch(ctx)
	if _, err = remote.Artifact(ctx, r, unit(0, 4), frameLen, 5); err == nil || !strings.Contains(err.Error(), "directory says 5") {
		t.Fatalf("short stashed payload: %v", err)
	}
	// A unit the batch failed is not stashed; the decode re-asks and gets
	// the error.
	boom := errors.New("boom")
	wire.fail[unit(9, 2)] = boom
	rq.Want(0, unit(9, 2))
	rq.Fetch(ctx)
	if rq.Stashed(0, unit(9, 2)) {
		t.Fatal("failed unit was stashed")
	}
	if _, err = remote.Artifact(ctx, r, unit(9, 2), frameLen+9, 2); !errors.Is(err, boom) {
		t.Fatalf("failed unit: %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err = remote.Artifact(canceled, r, unit(2, 4), frameLen+2, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fetch: %v", err)
	}
}

// TestResolveSpanning pins owner/scope resolution over two indexes: per-file
// scopes summed by IO, the Shape check, and the plan computed from entries
// that live on different files.
func TestResolveSpanning(t *testing.T) {
	a, b := openSynthetic(t), openSynthetic(t)
	b.SetQueryParallelism(3)
	owner := func(w int) *handle {
		switch w {
		case 0:
			return a
		case 1:
			return b
		}
		return nil
	}
	q := topic.Query{Topics: []int{0, 1}, K: 2}
	rq, err := Resolve("test", owner, q)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Base != a || rq.Index(0) != a || rq.Index(1) != b || rq.Par != 3 {
		t.Fatalf("resolved base %p, owners %p/%p, par %d", rq.Base, rq.Index(0), rq.Index(1), rq.Par)
	}
	single, err := a.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rq.Alloc, single) || rq.PhiQ != 4 {
		t.Fatalf("spanning plan %v (φ^Q %v) != single-index plan %v", rq.Alloc, rq.PhiQ, single)
	}
	ctx := context.Background()
	if _, err := a.Artifact(ctx, rq.Reader(0), artifact.Request{}, frameLen, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Artifact(ctx, rq.Reader(1), artifact.Request{}, frameLen, 6); err != nil {
		t.Fatal(err)
	}
	if io := rq.IO(); io.BytesRead != 10 || io.Total() != 2 {
		t.Fatalf("summed IO %+v, want 2 reads of 10 bytes", io)
	}

	for name, tc := range map[string]struct {
		owner func(int) *handle
		q     topic.Query
		want  string
	}{
		"no keywords":     {owner, topic.Query{K: 1}, "at least one keyword"},
		"unowned keyword": {func(int) *handle { return nil }, q, "keyword 0 not indexed"},
		"outside space":   {func(int) *handle { return a }, topic.Query{Topics: []int{0, 2}, K: 1}, "outside topic space"},
		"k over cap":      {owner, topic.Query{Topics: []int{0, 1}, K: 6}, "exceeds index cap"},
	} {
		if _, err := Resolve("test", tc.owner, tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", name, err, tc.want)
		}
	}
	b.Shape.K = 9
	if _, err := Resolve("test", owner, q); err == nil || !strings.Contains(err.Error(), "different datasets or caps") {
		t.Fatalf("mismatched shapes: %v", err)
	}
}
