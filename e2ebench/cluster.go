package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ha"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// normalizedSocial builds the graph the front end's gen command builds,
// normalized the way cluster.New normalizes it, so node ids agree.
func normalizedSocial(persons int, seed int64) (*graph.Graph, error) {
	g, err := server.BuildGraph(&server.Request{Cmd: "gen", Kind: "social", Size: persons, Seed: seed})
	if err != nil {
		return nil, err
	}
	g, _, err = dynamic.Apply(g, nil)
	return g, err
}

// harness is one front end assembled as `qgpcluster -spawn N -d D` does:
// an ha spawn pool of embedded workers with no idle timeout and no
// per-session watch cap, one shared registry and tracer, default tenant
// config (no admission limits), served on a 127.0.0.1 listener.
type harness struct {
	w       *workload
	fe      *cluster.Frontend
	ln      net.Listener
	served  chan error
	reg     *obs.Registry
	journal *ha.Journal
	jdir    string
	rec     *recorder

	mu    sync.Mutex
	coord *cluster.Coordinator // the shared session's coordinator, via OnSession

	tenants []*tenantLoop
}

// setUp starts a front end, generates the workload graph through the gen
// command (server-side generation, partition.DPar, fragment shipping),
// attaches the two named tenant sessions and registers their watches.
// rec, when non-nil, wraps the worker transports, pool, journal and client
// connections.
func setUp(w *workload, in *inputs, seed int64, dir string, rec *recorder) (*harness, error) {
	h := &harness{w: w, reg: obs.NewRegistry(), rec: rec, served: make(chan error, 1)}
	tracer := obs.NewTracerWith(nil, obs.NewTraceBuffer(128, 50))
	wcfg := server.Config{IdleTimeout: 24 * time.Hour, MaxWatches: -1, Metrics: h.reg}
	pool := ha.NewSpawnPool(w.endpoints, wcfg)
	ccfg := cluster.Config{D: w.d, Replicas: w.replicas, Metrics: h.reg, Tracer: tracer, Pool: pool,
		Logf: func(string, ...interface{}) {}}
	newWorkers := func() ([]cluster.Transport, error) { return pool.Primaries(w.workers) }
	if rec != nil {
		ccfg.Pool = &tracedPool{inner: pool, rec: rec}
		newWorkers = func() ([]cluster.Transport, error) {
			ts, err := pool.Primaries(w.workers)
			for i := range ts {
				ts[i] = wrapTransport(ts[i], "primary", rec)
			}
			return ts, err
		}
	}
	cfg := cluster.FrontendConfig{
		Cluster:    ccfg,
		NewWorkers: newWorkers,
		Tenancy:    tenant.Config{Metrics: h.reg},
		OnSession: func(c *cluster.Coordinator) func() {
			h.mu.Lock()
			h.coord = c
			h.mu.Unlock()
			return func() {}
		},
		Logf: func(string, ...interface{}) {},
	}
	if w.journal {
		jdir, err := os.MkdirTemp(dir, "journal-")
		if err != nil {
			return nil, err
		}
		h.jdir = jdir
		// Fsync off, as in the qgpcluster default.
		h.journal, err = ha.OpenJournal(jdir, ha.JournalOptions{Fsync: false, Metrics: h.reg})
		if err != nil {
			os.RemoveAll(jdir)
			return nil, err
		}
		var uj cluster.UpdateJournal = h.journal
		if rec != nil {
			uj = &tracedJournal{j: h.journal, rec: rec}
		}
		cfg.Durable = &cluster.DurableState{Journal: uj}
	}
	h.fe = cluster.NewFrontend(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	h.ln = ln
	go func() { h.served <- h.fe.Serve(ln) }()

	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.close()
			return nil, err
		}
		if rec != nil {
			conn = countingConn{Conn: conn, rec: rec}
		}
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		h.tenants = append(h.tenants, &tenantLoop{
			id: i, name: fmt.Sprintf("tenant-%d", i), c: client.NewClient(conn), w: w, in: in, rec: rec,
			cursor: i * len(in.pool) / 2, // the tenants start half a pool apart
			gen:    newBatchGen(in.g, w.writeLabel, w.lifecycle, w.persons, i, rng),
			watch:  make(map[string]*watchView),
		})
	}
	if _, _, err := h.tenants[0].c.Gen("social", w.persons, seed); err != nil {
		h.close()
		return nil, fmt.Errorf("gen: %w", err)
	}
	for _, t := range h.tenants {
		if _, err := t.c.Session(t.name); err != nil {
			h.close()
			return nil, fmt.Errorf("session %s: %w", t.name, err)
		}
		if w.watches == nil {
			continue
		}
		for _, pi := range w.watches[t.id] {
			name := fmt.Sprintf("w%d", pi)
			resp, err := t.c.Watch(name, watchPatterns[pi])
			if err != nil {
				h.close()
				return nil, fmt.Errorf("watch %s/%s: %w", t.name, name, err)
			}
			v := &watchView{pattern: pi, ans: make(map[int64]bool, len(resp.Matches))}
			for _, id := range resp.Matches {
				v.ans[id] = true
			}
			t.watch[name] = v
		}
	}
	return h, nil
}

// warmUp runs every segment for warmUpTime in all, so the first timed ops
// do not pay for cold caches and the set-up's garbage, and then clears
// what the timed phase reports. Batches and answers stay: the post-run
// check replays and checks every op.
func (h *harness) warmUp() {
	h.runSegments(warmUpTime)
	for _, t := range h.tenants {
		t.log.clearTimed()
	}
}

// runPhase runs both tenants' closed loops for d, segment by segment, and
// returns the summed wall time of the segments.
func (h *harness) runPhase(d time.Duration) time.Duration {
	if h.rec != nil {
		h.rec.setTimed(true)
	}
	elapsed := h.runSegments(d)
	if h.rec != nil {
		h.rec.setTimed(false)
	}
	return elapsed
}

// runSegments runs each segment for its share of d, both tenants together.
// A segment starts after a forced collection, so the garbage of the one
// before is not collected inside it; the collection is not in the segment's
// time, which runs from its start until the last tenant's last reply.
func (h *harness) runSegments(d time.Duration) time.Duration {
	var total time.Duration
	for _, seg := range h.w.segments {
		runtime.GC()
		start := time.Now()
		deadline := start.Add(time.Duration(seg.share * float64(d)))
		var wg sync.WaitGroup
		for _, t := range h.tenants {
			wg.Add(1)
			go func(t *tenantLoop) {
				defer wg.Done()
				t.run(seg.next, deadline)
			}(t)
		}
		wg.Wait()
		end := start
		for _, t := range h.tenants {
			if t.log.stopped.After(end) {
				end = t.log.stopped
			}
		}
		total += end.Sub(start)
	}
	return total
}

// settle drains every tenant once the loops stopped and re-reads, with a
// match, any watch whose delta stream was marked Resync.
func (h *harness) settle() error {
	for _, t := range h.tenants {
		if len(t.watch) == 0 {
			continue
		}
		resp, err := t.c.Do(&server.Request{Cmd: "deltas"})
		if err != nil {
			return fmt.Errorf("final drain %s: %w", t.name, err)
		}
		for _, wd := range resp.Deltas {
			t.apply(wd)
		}
		for _, v := range t.watch {
			if !v.resync {
				continue
			}
			resp, err := t.c.Match(watchPatterns[v.pattern], nil)
			if err != nil {
				return fmt.Errorf("resync re-read %s: %w", t.name, err)
			}
			v.ans = make(map[int64]bool, len(resp.Matches))
			for _, id := range resp.Matches {
				v.ans[id] = true
			}
			v.resync = false
		}
	}
	return nil
}

// readShare is the share of routed reads served by warm replicas.
func (h *harness) readShare() float64 {
	h.mu.Lock()
	c := h.coord
	h.mu.Unlock()
	if c == nil {
		return 0
	}
	var all, replica int64
	for _, frag := range c.ReadDistribution() {
		for i, n := range frag {
			all += n
			if i > 0 {
				replica += n
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(replica) / float64(all)
}

// close shuts the front end down, waits for its serve loop to return and
// removes the journal directory.
func (h *harness) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, t := range h.tenants {
		t.c.Close()
	}
	if h.fe != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		keep(h.fe.Shutdown(ctx))
		cancel()
	}
	if h.ln != nil {
		<-h.served
	}
	if h.journal != nil {
		keep(h.journal.Close())
	}
	if h.jdir != "" {
		keep(os.RemoveAll(h.jdir))
	}
	return first
}

func journalDir(out string) (string, error) {
	dir := filepath.Join(out, "run")
	return dir, os.MkdirAll(dir, 0o755)
}
