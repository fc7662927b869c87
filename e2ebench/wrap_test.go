package main

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/obs"
	"repro/internal/server"
)

// onlyEndpoint is a transport that implements Endpointer but not
// ReadTracker.
type onlyEndpoint struct{ cluster.Transport }

func (onlyEndpoint) Endpoint() int { return 7 }

// onlyReads implements ReadTracker but not Endpointer.
type onlyReads struct{ cluster.Transport }

func (onlyReads) ReadStart()    {}
func (onlyReads) ReadEnd()      {}
func (onlyReads) ReadLoad() int { return 3 }

func interfaces(t cluster.Transport) (ep, rt bool) {
	_, ep = t.(cluster.Endpointer)
	_, rt = t.(cluster.ReadTracker)
	return
}

// TestWrapKeepsOptionalInterfaces pins that a wrapped transport
// implements exactly the optional interfaces of the one it wraps: the
// coordinator type-asserts both, so a wrapper that dropped or added one
// would change replica placement or read routing under tracing.
func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	plain := cluster.InProcess(server.Config{})
	defer plain.Close()
	pooled, _, err := ha.NewSpawnPool(1, server.Config{}).Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	cases := []struct {
		name   string
		inner  cluster.Transport
		ep, rt bool
	}{
		{"plain", plain, false, false},
		{"endpoint", onlyEndpoint{plain}, true, false},
		{"reads", onlyReads{plain}, false, true},
		{"pooled", pooled, true, true},
	}
	for _, c := range cases {
		ep, rt := interfaces(wrapTransport(c.inner, "primary", rec))
		if ep != c.ep || rt != c.rt {
			t.Errorf("%s: wrapped Endpointer=%v ReadTracker=%v, want %v %v", c.name, ep, rt, c.ep, c.rt)
		}
	}
	if got := wrapTransport(onlyEndpoint{plain}, "primary", rec).(cluster.Endpointer).Endpoint(); got != 7 {
		t.Errorf("wrapped Endpoint() = %d, want 7", got)
	}
	if got := wrapTransport(onlyReads{plain}, "primary", rec).(cluster.ReadTracker).ReadLoad(); got != 3 {
		t.Errorf("wrapped ReadLoad() = %d, want 3", got)
	}
}

// testWorkload is a small replicated, journaled shape that exercises
// every wrapper: primaries, pool-acquired replicas, the journal and the
// counted client connections.
func testWorkload() *workload {
	return &workload{
		name: "test", persons: 400, d: 1, workers: 2, endpoints: 4, replicas: 2, journal: true,
		residents: true, staticAnswers: true, writeLabel: "follow", lifecycle: true,
		watches: [][]int{{0, 3}, {0, 1}},
		segments: []segment{{1, func(i int) opKind {
			switch i % 4 {
			case 0:
				return opMatch
			case 3:
				return opDrain
			}
			return opUpdate
		}}},
	}
}

// TestTracedHarness runs a short traced phase and checks that the front
// end behaves as it does untraced — pool transports keep their interfaces,
// routed reads still reach replicas, every answer checks out — and that
// the traced worker-call counts equal the change in the workers'
// server.cmd.<op>.count counters over the phase.
func TestTracedHarness(t *testing.T) {
	w := testWorkload()
	in, err := makeInputs(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	h, err := setUp(w, in, 5, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if got, want := int64(len(rec.fragment)), h.reg.Counter("server.cmd.fragment.count").Value(); got != want {
		t.Errorf("traced fragment calls = %d, registry server.cmd.fragment.count = %d", got, want)
	}
	before := counts(h.reg)
	h.runPhase(300 * time.Millisecond)
	after := counts(h.reg)
	traced := map[string]int64{}
	for _, c := range rec.calls {
		traced[c.Cmd]++
	}
	for op := range after {
		if got, want := traced[op], after[op]-before[op]; got != want {
			t.Errorf("traced %s calls = %d, change in server.cmd.%s.count = %d", op, got, op, want)
		}
	}
	if traced["match"] == 0 || traced["update"] == 0 {
		t.Errorf("phase made no worker match or update calls: %v", traced)
	}
	if h.readShare() == 0 {
		t.Errorf("no routed read reached a replica under tracing")
	}
	if err := h.settle(); err != nil {
		t.Fatal(err)
	}
	_, bad, err := verify(h, in, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}

func counts(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, op := range []string{"match", "update", "assign", "watch", "ping"} {
		out[op] = reg.Counter("server.cmd." + op + ".count").Value()
	}
	return out
}
