package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/ha"
	"repro/internal/server"
)

// recorder is the traced run's in-memory record: one span per call into a
// layer's public functions, made from this package's wrappers, plus the
// per-layer samples the traced metrics are computed from. Spans are kept
// in memory and written out once the run ends.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	nextID   int64
	spans    []span
	inflight map[int64]bool // client ops in flight, for worker-span parents
	calls    []workerCall   // worker calls made inside the timed window
	fragment []workerCall   // fragment shipping calls (set-up)
	appends  []journalAppend

	timed     atomic.Bool  // inside the timed window
	connBytes atomic.Int64 // client-side bytes, both directions, timed window only
}

type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent,omitempty"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	Endpoint *int    `json:"endpoint,omitempty"`
}

// workerCall is one round trip through a wrapped cluster.Transport. Role
// is "primary" for transports the front end's NewWorkers handed out and
// "pool" for those that came from WorkerPool.Get (replicas, re-ships).
type workerCall struct {
	Role     string
	Cmd      string
	RTT      time.Duration
	HandleMS float64 // the worker's own Response.ElapsedMS
	Bytes    int     // request plus response, re-encoded after the call
}

type journalAppend struct {
	D     time.Duration
	Bytes int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), inflight: make(map[int64]bool)}
}

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.t0).Nanoseconds()) / 1e3 }

// setTimed opens or closes the timed window.
func (r *recorder) setTimed(on bool) { r.timed.Store(on) }

// clientStart opens the span of one client op and marks it in flight.
func (r *recorder) clientStart() (int64, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.inflight[r.nextID] = true
	return r.nextID, time.Now()
}

// clientEnd closes a client op's span.
func (r *recorder) clientEnd(id int64, name string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.inflight, id)
	r.spans = append(r.spans, span{ID: id, Name: name, StartUS: r.us(start), EndUS: r.us(end)})
}

// parentLocked is the one client op in flight, or 0 when there are none
// or several: without trace ids on the wire a worker call cannot be told
// apart between concurrent client ops.
func (r *recorder) parentLocked() int64 {
	if len(r.inflight) != 1 {
		return 0
	}
	for id := range r.inflight {
		return id
	}
	return 0
}

func (r *recorder) workerCall(role string, ep int, req *server.Request, resp *server.Response, start time.Time, rtt time.Duration) {
	c := workerCall{Role: role, Cmd: req.Cmd, RTT: rtt}
	if resp != nil {
		c.HandleMS = resp.ElapsedMS
	}
	timed := r.timed.Load()
	r.mu.Lock()
	parent := r.parentLocked()
	r.mu.Unlock()
	// Re-encoding happens after the call's window closed, outside the
	// lock; it is part of the tracing overhead, not of the measured call.
	if timed {
		c.Bytes = encodedLen(req) + encodedLen(resp)
	}
	end := start.Add(rtt)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := span{ID: r.nextID, Parent: parent, Name: "server." + req.Cmd, StartUS: r.us(start), EndUS: r.us(end)}
	if ep >= 0 {
		s.Endpoint = &ep
	}
	r.spans = append(r.spans, s)
	switch {
	case req.Cmd == "fragment":
		r.fragment = append(r.fragment, c)
	case timed:
		r.calls = append(r.calls, c)
	}
}

func (r *recorder) journalAppend(start time.Time, d time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, span{ID: r.nextID, Parent: r.parentLocked(), Name: "ha.journal.append",
		StartUS: r.us(start), EndUS: r.us(start.Add(d))})
	if r.timed.Load() {
		r.appends = append(r.appends, journalAppend{D: d, Bytes: bytes})
	}
}

// span records a single-process layer call (replay, oracle, partition).
func (r *recorder) span(name string, start time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, span{ID: r.nextID, Name: name, StartUS: r.us(start), EndUS: r.us(start.Add(d))})
}

// writeSpans writes the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodedLen(v interface{}) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b) + 1 // the protocol's newline
}

// tracedTransport times every call into a worker transport. The
// coordinator type-asserts cluster.Endpointer and cluster.ReadTracker on
// its transports, so wrapTransport returns a type that implements exactly
// the optional interfaces the wrapped transport does: replica placement
// and read routing then behave the same traced and untraced.
type tracedTransport struct {
	inner cluster.Transport
	role  string
	rec   *recorder
}

func (t *tracedTransport) Do(req *server.Request) (*server.Response, error) {
	start := time.Now()
	resp, err := t.inner.Do(req)
	rtt := time.Since(start)
	t.rec.workerCall(t.role, endpointOf(t.inner), req, resp, start, rtt)
	return resp, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

func endpointOf(t cluster.Transport) int {
	if e, ok := t.(cluster.Endpointer); ok {
		return e.Endpoint()
	}
	return -1
}

type endpointTransport struct{ *tracedTransport }

func (t endpointTransport) Endpoint() int { return t.inner.(cluster.Endpointer).Endpoint() }

type readTransport struct{ *tracedTransport }

func (t readTransport) ReadStart()    { t.inner.(cluster.ReadTracker).ReadStart() }
func (t readTransport) ReadEnd()      { t.inner.(cluster.ReadTracker).ReadEnd() }
func (t readTransport) ReadLoad() int { return t.inner.(cluster.ReadTracker).ReadLoad() }

type fullTransport struct{ *tracedTransport }

func (t fullTransport) Endpoint() int { return t.inner.(cluster.Endpointer).Endpoint() }
func (t fullTransport) ReadStart()    { t.inner.(cluster.ReadTracker).ReadStart() }
func (t fullTransport) ReadEnd()      { t.inner.(cluster.ReadTracker).ReadEnd() }
func (t fullTransport) ReadLoad() int { return t.inner.(cluster.ReadTracker).ReadLoad() }

func wrapTransport(inner cluster.Transport, role string, rec *recorder) cluster.Transport {
	base := &tracedTransport{inner: inner, role: role, rec: rec}
	_, isEP := inner.(cluster.Endpointer)
	_, isRT := inner.(cluster.ReadTracker)
	switch {
	case isEP && isRT:
		return fullTransport{base}
	case isEP:
		return endpointTransport{base}
	case isRT:
		return readTransport{base}
	default:
		return base
	}
}

// tracedPool wraps every transport WorkerPool.Get hands out.
type tracedPool struct {
	inner cluster.WorkerPool
	rec   *recorder
}

func (p *tracedPool) Get(weight int, avoid map[int]bool) (cluster.Transport, int, error) {
	t, ep, err := p.inner.Get(weight, avoid)
	if err != nil {
		return nil, ep, err
	}
	return wrapTransport(t, "pool", p.rec), ep, nil
}

// tracedJournal times the coordinator's AppendBatch calls and reads the
// journal's growth after each one, outside the timed call.
type tracedJournal struct {
	j   *ha.Journal
	rec *recorder
}

func (t *tracedJournal) SetGraph(g *graph.Graph) error { return t.j.SetGraph(g) }

func (t *tracedJournal) AppendBatch(specs []server.UpdateSpec) error {
	before, _ := t.j.JournalBytes() // a failed size read only loses the byte count
	start := time.Now()
	err := t.j.AppendBatch(specs)
	d := time.Since(start)
	after, _ := t.j.JournalBytes()
	t.rec.journalAppend(start, d, after-before)
	return err
}

func (t *tracedJournal) WatchRegistered(name, pattern string) error {
	return t.j.WatchRegistered(name, pattern)
}

func (t *tracedJournal) WatchRemoved(name string) error { return t.j.WatchRemoved(name) }

// countingConn counts the client side's bytes in both directions while
// the timed window is open.
type countingConn struct {
	net.Conn
	rec *recorder
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count(n)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count(n)
	return n, err
}

func (c countingConn) count(n int) {
	if c.rec.timed.Load() {
		c.rec.connBytes.Add(int64(n))
	}
}
