// CFG-shaped cases: goto, labeled break/continue, select, short-circuit
// conditions, and releases hidden behind helpers that only the
// interprocedural parameter summary can prove. The ok cases in this
// file are exactly the shapes the old single-resource statement walker
// rejected.
package handlepin

// closeHandle is the helper hiding the release. Its summary proves the
// parameter is settled on every path — the nil guard is fine because a
// nil handle needs no release.
func closeHandle(h *handle) {
	if h == nil {
		return
	}
	h.release()
}

// maybeClose settles only on one branch, so its summary must not count
// as a release at call sites.
func maybeClose(h *handle, ok bool) {
	if ok {
		h.release()
	}
}

// relTrue releases and reports success, the shape used as a
// short-circuit operand.
func relTrue(h *handle) bool {
	h.release()
	return true
}

// leakGoto jumps straight to the return with the handle still live.
func leakGoto(e *engine, fail bool) error {
	h, err := e.acquire("rr") // want "handle from acquire is not released on every path"
	if err != nil {
		return err
	}
	if fail {
		goto out
	}
	h.release()
out:
	return nil
}

// okGoto funnels every path through the cleanup label.
func okGoto(e *engine, fail bool) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	if fail {
		goto cleanup
	}
	use(h)
cleanup:
	h.release()
	return nil
}

// okLabeledBreak releases before breaking out of both loops.
func okLabeledBreak(e *engine, xs []int) {
outer:
	for range xs {
		for _, x := range xs {
			h, err := e.acquire("rr")
			if err != nil {
				return
			}
			if x > 0 {
				h.release()
				break outer
			}
			h.release()
		}
	}
}

// leakLabeledContinue re-enters the outer loop with the handle still
// live: the labeled continue skips the inner loop's release.
func leakLabeledContinue(e *engine, xs []int) {
outer:
	for range xs {
		for _, x := range xs {
			h, err := e.acquire("rr") // want "handle from acquire is not released before the end of the loop iteration"
			if err != nil {
				return
			}
			if x == 0 {
				continue outer
			}
			h.release()
		}
	}
}

// okSelectEarly releases on the early-return arm and after the select.
func okSelectEarly(e *engine, done chan struct{}, work chan int) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	select {
	case <-done:
		h.release()
		return errBoom
	case <-work:
		use(h)
	}
	h.release()
	return nil
}

// leakSelect drops the handle on the done arm's early return.
func leakSelect(e *engine, done chan struct{}, work chan int) error {
	h, err := e.acquire("rr") // want "handle from acquire is not released on every path"
	if err != nil {
		return err
	}
	select {
	case <-done:
		return errBoom
	case <-work:
		h.release()
	}
	return nil
}

// okShortCircuit releases inside the right operand of &&: the CFG
// models the conditional evaluation, and relTrue's summary settles the
// handle on the path that evaluates it while the fallthrough path
// releases explicitly.
func okShortCircuit(e *engine) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	if h.refs > 0 && relTrue(h) {
		return nil
	}
	h.release()
	return nil
}

// okHelperRelease settles through closeHandle; only the
// interprocedural summary can prove this.
func okHelperRelease(e *engine) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	use(h)
	closeHandle(h)
	return nil
}

// okDeferHelper defers the helper instead of the release method.
func okDeferHelper(e *engine) error {
	h, err := e.acquire("rr")
	if err != nil {
		return err
	}
	defer closeHandle(h)
	return errBoom
}

// leakHelperConditional passes the handle to a helper that releases
// only sometimes; the summary rejects it and the leak is real.
func leakHelperConditional(e *engine, ok bool) error {
	h, err := e.acquire("rr") // want "handle from acquire is not released on every path"
	if err != nil {
		return err
	}
	maybeClose(h, ok)
	return nil
}
