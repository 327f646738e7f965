package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of a measured pass. The reply is kept verbatim and
// checked after the pass, so no parsing runs inside a timed window.
type sample struct {
	idx int // index into the query sequence
	// ref is the request's reference time: its actual start in a closed
	// loop, its INTENDED send time in an open loop. lat runs from ref to the
	// last byte of the reply.
	ref time.Time
	lat time.Duration
	// first is the time to the first NDJSON line (stream passes only).
	first time.Duration
	// late is how long after its intended time the request was actually sent
	// (open loop only): the generator's own delay.
	late   time.Duration
	status int
	body   []byte // batch: the JSON reply; stream: every NDJSON line
	err    error
}

// pass is one phase of a run.
type pass struct {
	Name    string
	samples []sample
	wall    time.Duration
	// intended is the scheduled length of an open-loop pass (count ÷ rate).
	intended time.Duration
}

// loader issues the pre-built requests of one run.
type loader struct {
	hc     *http.Client
	url    string // base URL of the server under test; set per round
	bodies [][]byte
	next   atomic.Int64 // next unused index of the query sequence
}

func newLoader(queries []query, conns int) *loader {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	l := &loader{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	l.bodies = make([][]byte, len(queries))
	for i, q := range queries {
		l.bodies[i] = q.body()
	}
	return l
}

func (l *loader) close() { l.hc.CloseIdleConnections() }

// take claims the next query index, or -1 when the sequence is used up.
func (l *loader) take() int {
	i := int(l.next.Add(1) - 1)
	if i >= len(l.bodies) {
		return -1
	}
	return i
}

// do sends query idx of the sequence and reads the whole reply. ref is the
// time latency counts from.
func (l *loader) do(idx int, stream bool, ref time.Time) sample {
	s := l.post(l.bodies[idx], stream, ref)
	s.idx = idx
	return s
}

// post sends one request body to /query and reads the whole reply.
func (l *loader) post(body []byte, stream bool, ref time.Time) sample {
	s := sample{ref: ref}
	url := l.url + "/query"
	if stream {
		url += "?stream=1"
	}
	resp, err := l.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		s.lat = time.Since(ref)
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if stream && resp.StatusCode == http.StatusOK {
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		s.first = time.Since(ref)
		rest, err2 := io.ReadAll(br)
		s.lat = time.Since(ref)
		s.body = append(line, rest...)
		if err != nil && err != io.EOF {
			s.err = err
		} else if err2 != nil {
			s.err = err2
		}
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	s.lat = time.Since(ref)
	return s
}

// ask posts one query outside any timed window and parses the reply.
func (l *loader) ask(q query) (*reply, error) {
	s := l.post(q.body(), false, time.Now())
	if s.err != nil {
		return nil, s.err
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", s.status, s.body)
	}
	var r reply
	if err := json.Unmarshal(s.body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// closedLoop runs `clients` clients for d: each sends its next request only
// after the previous reply is complete. No request starts after the window
// closes; the pass's wall time runs to the last reply.
func (l *loader) closedLoop(name string, clients int, d time.Duration, stream bool) pass {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx := l.take()
				if idx < 0 {
					return
				}
				per[c] = append(per[c], l.do(idx, stream, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	p := pass{Name: name, wall: time.Since(start)}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// openLoop sends count requests on a fixed schedule, request i due at
// start + i·interval, over `conns` connections. A connection that is still
// busy when a request falls due sends it late; latency counts from the due
// time either way, so a stall is charged to every request it delays. send
// performs one request (loader.do outside tests).
func (l *loader) openLoop(name string, conns int, rate float64, d time.Duration, send func(idx int, ref time.Time) sample) pass {
	interval := time.Duration(float64(time.Second) / rate)
	count := int(d / interval)
	if count < 1 {
		count = 1
	}
	first := int(l.next.Add(int64(count))) - count
	if over := first + count - len(l.bodies); over > 0 {
		count = max(count-over, 0)
	}
	samples := make([]sample, count)
	var slot atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(slot.Add(1) - 1)
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(due)
				if late < 0 {
					late = 0
				}
				samples[i] = send(first+i, due)
				samples[i].late = late
			}
		}()
	}
	wg.Wait()
	return pass{Name: name, samples: samples, wall: time.Since(start), intended: time.Duration(count) * interval}
}
