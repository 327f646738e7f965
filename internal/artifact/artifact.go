// Package artifact holds the vocabulary of the artifact fetch protocol: the
// (unit, topic, aux) request naming one raw index segment, the per-unit
// reply, and the per-query stash that carries batch-fetched payloads from the
// round planner to the decode path.
//
// It sits below everything that speaks the protocol: internal/indexfile
// declares the Fetcher it reads through and plans rounds over these types,
// and internal/remote moves them over the wire.
package artifact

import (
	"sync"

	"kbtim/internal/diskio"
)

// Request names one raw index artifact, relative to an index kind the caller
// has already bound (a fetcher is per-kind, so kind never appears here). The
// unit strings are the ones the index packages export (UnitSets, UnitInv,
// UnitIP, UnitPart, ...); aux is the unit-specific argument — θ-prefix length
// for "sets", partition index for "part", zero otherwise.
type Request struct {
	Unit  string
	Topic int
	Aux   int64
}

// Reply is the outcome of one Request within a batch: the raw payload bytes
// exactly as stored in the index file, or the error that unit produced. A
// batch isolates failures per unit — one missing keyword must not fail the
// round's other fetches.
type Reply struct {
	Payload []byte
	Err     error
}

// Stash is a per-query holding area for batch-fetched payloads: the round
// planner Puts every reply, and the decode path Takes each unit at the exact
// point it would otherwise have gone to the wire. Take removes the entry, so
// a payload is consumed (and its I/O accounted) exactly once, and anything
// left over is simply garbage-collected with the query.
//
// It is mutex-protected because one query Takes from several goroutines at
// once: RR's per-keyword load goroutines and the IRR IP phase each consume
// their own units from the same stash.
type Stash struct {
	mu sync.Mutex
	m  map[Request][]byte
}

// NewStash returns an empty stash.
func NewStash() *Stash {
	return &Stash{m: make(map[Request][]byte)}
}

// Put stores a payload for req, replacing any previous entry.
func (s *Stash) Put(req Request, payload []byte) {
	s.mu.Lock()
	s.m[req] = payload
	s.mu.Unlock()
}

// Take removes and returns the payload stored for req, if any.
func (s *Stash) Take(req Request) ([]byte, bool) {
	s.mu.Lock()
	b, ok := s.m[req]
	if ok {
		delete(s.m, req)
	}
	s.mu.Unlock()
	return b, ok
}

// Has reports whether a payload is currently stashed for req, without
// consuming it. Planners use it to skip re-fetching a unit that an earlier
// round already brought over.
func (s *Stash) Has(req Request) bool {
	s.mu.Lock()
	_, ok := s.m[req]
	s.mu.Unlock()
	return ok
}

// Stashed decorates a query's I/O scope with a stash of batch-fetched
// payloads. The artifact choke point (indexfile.File.Artifact) type-asserts
// for it and consumes stashed bytes before going to the wire, so the batch
// seam needs no signature changes anywhere in the decode chain — the stash
// rides the reader every fetch already receives.
type Stashed struct {
	diskio.Segmented
	S *Stash
}
