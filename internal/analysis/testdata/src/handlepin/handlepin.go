// Package handlepin is kbtim-lint golden testdata: acquire/release
// shapes mirroring Engine.acquire (a handle) and Sharded.acquire/pin
// (cleanup funcs).
// The // want comments are the expected findings; violations without a
// want carry a //kbtim:allow suppression instead.
package handlepin

import "errors"

type handle struct{ refs int }

func (h *handle) release() { h.refs-- }

type engine struct{ h *handle }

func (e *engine) acquire(strategy string) (*handle, error) { return e.h, nil }

type sharded struct{ engines []*engine }

func (s *sharded) acquire() (func(), error) { return func() {}, nil }
func (s *sharded) pin() ([]*handle, func(), error) {
	return []*handle{s.engines[0].h}, func() {}, nil
}

var errBoom = errors.New("boom")

func use(h *handle) {}

// leakOnError drops the handle on the early non-error return.
func leakOnError(e *engine, fail bool) error {
	h, err := e.acquire("rr") // want "handle from acquire is not released on every path"
	if err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	h.release()
	return nil
}

// leakCleanup drops the acquire cleanup on a branch.
func leakCleanup(s *sharded, fail bool) error {
	done, err := s.acquire() // want "cleanup func from acquire is not released on every path"
	if err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	done()
	return nil
}

// discardPin throws the pin cleanup away entirely.
func discardPin(s *sharded) error {
	_, _, err := s.pin() // want "cleanup func from pin is discarded"
	return err
}

// leakAtEnd falls off the function end with the handle live.
func leakAtEnd(e *engine) {
	h, err := e.acquire("irr") // want "handle from acquire is not released before the function returns"
	if err != nil {
		return
	}
	use(h)
}

// okDefer is the canonical pattern: guard the error, defer the release.
func okDefer(e *engine) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	defer h.release()
	if h.refs > 0 {
		return errBoom
	}
	return nil
}

// okBranches releases explicitly on every path.
func okBranches(s *sharded, fail bool) error {
	done, err := s.acquire()
	if err != nil {
		return err
	}
	if fail {
		done()
		return errBoom
	}
	done()
	return nil
}

// okTransferReturn hands the handle (and the job of releasing it) to
// the caller.
func okTransferReturn(e *engine) (*handle, error) {
	h, err := e.acquire("rr")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// okTransferStore parks the handle in a container the caller owns,
// mirroring Sharded.pin collecting per-shard handles.
func okTransferStore(e *engine, m map[int]*handle) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	m[0] = h
	return nil
}

// okDeferredClosure releases inside a deferred closure.
func okDeferredClosure(s *sharded) error {
	done, err := s.acquire()
	if err != nil {
		return err
	}
	defer func() { done() }()
	return errBoom
}

// pinForever intentionally holds the refcount for the process lifetime,
// the one sanctioned exception.
func pinForever(e *engine) error {
	//kbtim:allow handlepin startup pin held for the process lifetime
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	use(h)
	return nil
}
