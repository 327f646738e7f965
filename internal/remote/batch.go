package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kbtim/internal/artifact"
)

const (
	// Per-unit status bytes in a batch reply (wire format in the package
	// comment).
	batchOK        = 0
	batchNotServed = 1
	batchFailed    = 2

	// maxBatchUnits bounds one batch request — far above any real round
	// (a round asks for at most a few units per query keyword).
	maxBatchUnits = 4096
	// maxBatchBody bounds the JSON request body the handler will read.
	maxBatchBody = 1 << 20
)

// batchUnitJSON / batchRequestJSON are the POST body shape.
type batchUnitJSON struct {
	Unit  string `json:"unit"`
	Topic int    `json:"topic"`
	Aux   int64  `json:"aux,omitempty"`
}

type batchRequestJSON struct {
	Kind  string          `json:"kind"`
	Units []batchUnitJSON `json:"units"`
}

// NewBatchHandler returns the HTTP handler serving artifact requests from src
// — mount it at BatchPath. Every requested unit is answered in order with its
// own status record, so a unit that does not resolve (or whose read fails)
// degrades that unit alone.
func NewBatchHandler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req batchRequestJSON
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch request: %v", err), http.StatusBadRequest)
			return
		}
		if req.Kind == "" || len(req.Units) == 0 {
			http.Error(w, "kind and at least one unit are required", http.StatusBadRequest)
			return
		}
		if len(req.Units) > maxBatchUnits {
			http.Error(w, fmt.Sprintf("batch of %d units exceeds the %d-unit cap", len(req.Units), maxBatchUnits), http.StatusBadRequest)
			return
		}
		// Every unit is resolved before the reply is assembled, so the headers
		// (version, index size) can lead it and its buffer is sized once. One
		// batch is one kind and one fetch round, whose units are disjoint
		// extents of one file: a request for more OK bytes than that file
		// holds is not a round, and is refused as soon as it passes that size.
		type record struct {
			status  byte
			payload []byte
		}
		recs := make([]record, len(req.Units))
		var lenBuf [1 + binary.MaxVarintLen64]byte // status byte + payload length
		size, served, bodyLen := int64(0), int64(0), 0
		for i, u := range req.Units {
			b, sz, err := src.ArtifactBytes(req.Kind, u.Unit, u.Topic, u.Aux)
			rec := record{status: batchOK, payload: b}
			switch {
			case err == nil:
				if size == 0 {
					size = sz
				}
				if served += int64(len(b)); served > size {
					http.Error(w, fmt.Sprintf("batch asks for more than the %d bytes of the %s index it is cut from", size, req.Kind), http.StatusBadRequest)
					return
				}
			case errors.Is(err, ErrNoArtifact):
				rec = record{status: batchNotServed, payload: []byte(err.Error())}
			default:
				rec = record{status: batchFailed, payload: []byte(err.Error())}
			}
			recs[i] = rec
			bodyLen += 1 + binary.PutUvarint(lenBuf[:], uint64(len(rec.payload))) + len(rec.payload)
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set(headerVersion, strconv.Itoa(BatchVersion))
		h.Set(headerIndexSize, strconv.FormatInt(size, 10))
		h.Set("Content-Length", strconv.Itoa(bodyLen))
		body := bytes.NewBuffer(make([]byte, 0, bodyLen))
		for _, rec := range recs {
			lenBuf[0] = rec.status
			body.Write(lenBuf[:1+binary.PutUvarint(lenBuf[1:], uint64(len(rec.payload)))])
			body.Write(rec.payload)
		}
		body.WriteTo(w)
	})
}

// FetchBatch retrieves a whole round of artifacts of one kind in a single
// round trip, returning one reply per request in order plus the index file
// size the node advertised (0 when no unit succeeded). Per-unit failures are
// carried in the replies, not the error.
//
// A non-nil error means the round trip itself failed; the returned replies
// are then the fully parsed PREFIX (possibly empty) of the response, so the
// caller can re-issue just the unserved remainder elsewhere.
func (c *Client) FetchBatch(ctx context.Context, kind string, reqs []artifact.Request) ([]artifact.Reply, int64, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	units := make([]batchUnitJSON, len(reqs))
	for i, r := range reqs {
		units[i] = batchUnitJSON{Unit: r.Unit, Topic: r.Topic, Aux: r.Aux}
	}
	body, err := json.Marshal(batchRequestJSON{Kind: kind, Units: units})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.batchBase, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("remote: batch of %d %s units: %s: %s", len(reqs), kind, resp.Status, bytes.TrimSpace(msg))
	}
	if v := resp.Header.Get(headerVersion); v != strconv.Itoa(BatchVersion) {
		return nil, 0, fmt.Errorf("remote: node answered a batch with artifact protocol %q, this client speaks %d", v, BatchVersion)
	}
	size, err := strconv.ParseInt(resp.Header.Get(headerIndexSize), 10, 64)
	if err != nil || size < 0 {
		return nil, 0, fmt.Errorf("remote: missing or bad %s header %q", headerIndexSize, resp.Header.Get(headerIndexSize))
	}
	// The handler always declares the body length, which is what bounds the
	// payload allocations below by bytes the peer committed to send.
	owed := resp.ContentLength
	if owed < 0 {
		return nil, 0, errors.New("remote: batch reply declares no Content-Length")
	}
	c.fetches.Add(1)

	// Parse the ordered record stream. Any truncation or corruption returns
	// the fully parsed prefix with the error — the unserved remainder is the
	// caller's to retry.
	replies := make([]artifact.Reply, 0, len(reqs))
	br := bufio.NewReader(resp.Body)
	for i := range reqs {
		status, err := br.ReadByte()
		if err != nil {
			return replies, size, fmt.Errorf("remote: batch reply truncated after %d of %d units: %w", i, len(reqs), err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return replies, size, fmt.Errorf("remote: batch reply truncated in unit %d of %d: %w", i+1, len(reqs), err)
		}
		if n > maxArtifactBytes || int64(n) > owed {
			return replies, size, fmt.Errorf("remote: batch unit %d of %d claims %d bytes; the reply owes at most %d (cap %d)",
				i+1, len(reqs), n, owed, int64(maxArtifactBytes))
		}
		owed -= int64(n)
		buf, err := readPayload(br, int(n))
		if err != nil {
			return replies, size, fmt.Errorf("remote: batch reply truncated in unit %d of %d: %w", i+1, len(reqs), err)
		}
		r := reqs[i]
		switch status {
		case batchOK:
			c.bytes.Add(int64(n))
			c.batchedUnits.Add(1)
			replies = append(replies, artifact.Reply{Payload: buf})
		case batchNotServed:
			replies = append(replies, artifact.Reply{Err: fmt.Errorf("%w: %s %s artifact (topic %d, aux %d): %s",
				ErrNotServed, kind, r.Unit, r.Topic, r.Aux, buf)})
		case batchFailed:
			replies = append(replies, artifact.Reply{Err: fmt.Errorf("remote: %s %s artifact (topic %d, aux %d): %s",
				kind, r.Unit, r.Topic, r.Aux, buf)})
		default:
			return replies, size, fmt.Errorf("remote: batch unit %d has unknown status %d", i+1, status)
		}
	}
	return replies, size, nil
}

// readStep is the most readPayload allocates ahead of the bytes it has
// received. Artifacts up to it are read into one exact allocation.
const readStep = 1 << 20

// readPayload reads an n-byte record payload. The length is the peer's
// claim, and so is the Content-Length that bounds it, so the buffer grows
// only as bytes arrive: a reply that claims more than it sends costs at most
// readStep past twice what was actually received.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readStep))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if off = len(buf); off == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(off, n-off))...)
	}
}

// FetchBatch retrieves a whole round of artifacts from the replica group in
// (ideally) one round trip, with whole-batch failover: a replica that fails
// mid-batch keeps every reply it fully delivered, and only the UNSERVED
// REMAINDER is re-issued to the next replica. Reads start at the
// shardmap.Affinity-preferred replica of the first unit's topic. A not-served
// reply is terminal and no fault (the node answered; the name resolves
// identically on every replica of the shard), a reply advertising a different
// index size than the group opened discards that replica's entire answer (it
// serves a different file: a fault, not a source of parity-breaking bytes),
// and a canceled context stops the rotation without blaming a replica. Always
// returns len(reqs) replies, plus the index file size the serving replica
// advertised (0 when no unit succeeded).
func (g *Group) FetchBatch(ctx context.Context, kind string, reqs []artifact.Request) ([]artifact.Reply, int64) {
	out := make([]artifact.Reply, len(reqs))
	if len(reqs) == 0 {
		return out, 0
	}
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	order := g.tryOrder(reqs[0].Topic)
	want := g.recordedSize(kind)
	var (
		lastErr    error
		advertised int64
	)
	for attempt, i := range order {
		if len(pending) == 0 {
			return out, advertised
		}
		sub := make([]artifact.Request, len(pending))
		for k, pi := range pending {
			sub[k] = reqs[pi]
		}
		replies, size, err := g.clients[i].FetchBatch(ctx, kind, sub)
		if err == nil && size != 0 && want != 0 && size != want {
			// The replica answered cleanly but serves a DIFFERENT file; none
			// of its bytes may be used (parity), so the whole sub-batch stays
			// pending for the next replica.
			err = fmt.Errorf("%w: advertises a %d-byte %s index, group opened a %d-byte one", ErrReplicaMismatch, size, kind, want)
			replies = nil
		}
		if advertised == 0 && len(replies) > 0 {
			advertised = size
		}
		served := false
		var rest []int
		for k, pi := range pending {
			if k < len(replies) {
				rep := replies[k]
				if rep.Err == nil {
					out[pi] = rep
					served = true
					continue
				}
				if errors.Is(rep.Err, ErrNotServed) {
					out[pi] = rep
					continue
				}
				lastErr = rep.Err
			}
			rest = append(rest, pi)
		}
		pending = rest
		if err != nil {
			if ctx.Err() != nil {
				// The caller gave up; do not blame the replica, do not keep trying.
				for _, pi := range pending {
					out[pi] = artifact.Reply{Err: err}
				}
				return out, advertised
			}
			g.observe(i, err)
			lastErr = err
		} else {
			g.observe(i, nil)
		}
		if served && attempt > 0 {
			g.failovers.Add(1)
		}
		if len(pending) > 0 && attempt < len(order)-1 {
			g.retries.Add(1)
		}
	}
	for _, pi := range pending {
		out[pi] = artifact.Reply{Err: fmt.Errorf("remote: all %d replicas failed the batch, last: %w", len(order), lastErr)}
	}
	return out, advertised
}

// groupFetcher binds a group to one index kind: the indexfile.Fetcher that
// lets a spanning query fail over to a surviving replica mid-round.
type groupFetcher struct {
	g    *Group
	kind string
}

func (f groupFetcher) FetchBatch(ctx context.Context, reqs []artifact.Request) []artifact.Reply {
	replies, _ := f.g.FetchBatch(ctx, f.kind, reqs)
	return replies
}
