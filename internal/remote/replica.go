package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
)

// ErrReplicaMismatch reports that a replica answered but serves a DIFFERENT
// index file than the rest of its group — a configuration error, not a
// transient fault. The parity invariant (remote queries bit-identical to a
// local open) only holds when every replica of a shard serves byte-identical
// files, so a mismatching replica must never receive artifact traffic.
var ErrReplicaMismatch = errors.New("remote: replica serves a different index")

// Health is the availability policy a Group consults per replica — the seam
// between the retrying fetch layer and the router's breaker state. A nil
// Health treats every replica as available and discards observations.
//
// Observe is called with the outcome of every replica round trip the Group
// makes (nil on success — including a 404, where the node answered and the
// artifact name simply does not resolve). It is NOT called when the caller's
// context is already canceled: an impatient client must not read as a
// replica fault.
type Health interface {
	// Available reports whether replica i should be tried at all. When no
	// replica is available the Group fails open and tries them all anyway —
	// a stale "everything is down" verdict must not fail queries that could
	// have succeeded.
	Available(i int) bool
	// Observe reports the outcome of a round trip to replica i.
	Observe(i int, err error)
}

// GroupStats is a snapshot of a Group's cumulative failover counters.
type GroupStats struct {
	// Retries counts failed fetch attempts that were re-issued to another
	// replica of the same shard.
	Retries int64
	// Failovers counts fetches that SUCCEEDED on a replica other than the
	// first one tried.
	Failovers int64
}

// dirRecord is the group's recorded view of one index kind: the prelude
// bytes and advertised file size of the first successful open, the reference
// every replica must match.
type dirRecord struct {
	prelude []byte
	size    int64
}

// Group fetches index artifacts from a set of interchangeable replicas of
// ONE shard — every replica serves a byte-identical index file, so an
// artifact fetch is idempotent across them and a failed one can be re-issued
// to a surviving replica without violating the parity invariant.
//
// Reads of topic w start at the shardmap.Affinity-preferred replica (hot
// keywords spread deterministically across the set) and rotate on failure:
// available replicas first, then — if every replica is reported down — the
// rest, so a stale health verdict degrades to a retry instead of an outright
// failure (see FetchBatch).
//
// A Group is safe for concurrent use.
type Group struct {
	clients []*Client
	health  Health

	mu   sync.Mutex
	dirs map[string]dirRecord // kind → reference prelude/size, set at open

	retries   atomic.Int64
	failovers atomic.Int64
}

// NewGroup returns a group over the given replica clients (at least one).
// health may be nil; see Health.
func NewGroup(clients []*Client, health Health) *Group {
	return &Group{clients: clients, health: health, dirs: make(map[string]dirRecord)}
}

// Stats returns the cumulative failover counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Retries: g.retries.Load(), Failovers: g.failovers.Load()}
}

func (g *Group) available(i int) bool {
	return g.health == nil || g.health.Available(i)
}

func (g *Group) observe(i int, err error) {
	if g.health != nil {
		g.health.Observe(i, err)
	}
}

// tryOrder returns replica indices in preference order for topic: the
// Affinity-preferred replica first, rotating upward, with unavailable
// replicas moved to the back (kept as a last resort rather than dropped).
func (g *Group) tryOrder(topic int) []int {
	n := len(g.clients)
	start := shardmap.Affinity(topic, n)
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; g.available(i) {
			order = append(order, i)
		}
	}
	for k := 0; k < n; k++ {
		if i := (start + k) % n; !g.available(i) {
			order = append(order, i)
		}
	}
	return order
}

// recordedSize returns the advertised index size recorded for kind at open
// time (0 when the kind was never opened through this group).
func (g *Group) recordedSize(kind string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dirs[kind].size
}

func (g *Group) recordDir(kind string, prelude []byte, size int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dirs[kind] = dirRecord{prelude: append([]byte(nil), prelude...), size: size}
}

// openDir fetches kind's prelude through the failover fetch — a one-unit
// batch, served by the first replica that answers — records it as the group's
// reference view, and returns it as the reader a remote index opens on.
func (g *Group) openDir(ctx context.Context, kind string) (*stubReader, error) {
	replies, size := g.FetchBatch(ctx, kind, []artifact.Request{{Unit: indexfile.UnitDir}})
	if err := replies[0].Err; err != nil {
		return nil, err
	}
	g.recordDir(kind, replies[0].Payload, size)
	return &stubReader{prelude: replies[0].Payload, size: size, counter: diskio.NewCounter()}, nil
}

// OpenRR opens the shard's RR index through the group: the header and
// keyword directory are parsed by the exact code a local open runs (including
// offset validation against the advertised file size), and the returned index
// reads every payload artifact through the failover FetchBatch. Attach a
// decoded cache (SetDecodedCache) to keep hot artifacts on this side of the
// wire.
func (g *Group) OpenRR(ctx context.Context) (*rrindex.Index, error) {
	r, err := g.openDir(ctx, KindRR)
	if err != nil {
		return nil, err
	}
	idx, err := rrindex.Open(r)
	if err != nil {
		return nil, err
	}
	idx.SetFetcher(groupFetcher{g: g, kind: KindRR})
	return idx, nil
}

// OpenIRR opens the shard's IRR index through the group; see OpenRR.
func (g *Group) OpenIRR(ctx context.Context) (*irrindex.Index, error) {
	r, err := g.openDir(ctx, KindIRR)
	if err != nil {
		return nil, err
	}
	idx, err := irrindex.Open(r)
	if err != nil {
		return nil, err
	}
	idx.SetFetcher(groupFetcher{g: g, kind: KindIRR})
	return idx, nil
}

// Validate checks replica i against the group's recorded view of every index
// kind the group opened: it fetches each dir artifact directly from that
// replica and requires a byte-identical prelude and the same advertised
// size. This is the admission check for a replica that was unreachable when
// the group opened — until it passes, the replica must not serve artifact
// traffic (the router gates it behind its breaker). A network failure
// returns the transport error; a reachable replica serving different bytes
// returns ErrReplicaMismatch. Validate itself reports nothing to Health — the
// caller owns that verdict.
func (g *Group) Validate(ctx context.Context, i int) error {
	g.mu.Lock()
	dirs := maps.Clone(g.dirs)
	g.mu.Unlock()
	if len(dirs) == 0 {
		return errors.New("remote: group never opened an index to validate against")
	}
	for _, kind := range slices.Sorted(maps.Keys(dirs)) {
		rec := dirs[kind]
		replies, size, err := g.clients[i].FetchBatch(ctx, kind, []artifact.Request{{Unit: indexfile.UnitDir}})
		if err != nil {
			return err
		}
		if err := replies[0].Err; err != nil {
			return err
		}
		prelude := replies[0].Payload
		if size != rec.size || !bytes.Equal(prelude, rec.prelude) {
			return fmt.Errorf("%w: %s dir is %d bytes in a %d-byte file, group reference is %d bytes in a %d-byte file",
				ErrReplicaMismatch, kind, len(prelude), size, len(rec.prelude), rec.size)
		}
	}
	return nil
}
