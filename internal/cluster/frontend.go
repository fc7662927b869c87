package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/tenant"
)

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Cluster is the coordinator configuration applied to the shared
	// cluster (including Replicas, Pool and, for a durable front end,
	// Journal). A zero MaxWatches is lifted to unlimited: the one
	// coordinator aggregates every tenant's watches, and quotas are
	// enforced per tenant by the session manager instead.
	Cluster Config
	// NewWorkers supplies a fresh set of worker transports for a
	// cluster's coordinator. Required. The coordinator built over them
	// owns and closes them.
	NewWorkers func() ([]Transport, error)
	// Tenancy tunes the tenant manager (quotas, idle eviction). Zero
	// values take the tenant package defaults; Logf and Metrics default
	// to this config's Logf and Cluster.Metrics.
	Tenancy tenant.Config
	// Durable, when non-nil, backs the shared cluster with a journal:
	// updates are journaled before fan-out and a restarted front end
	// resumes from the recovered graph and watches.
	Durable *DurableState
	// OnSession, when set, is called with each coordinator the front
	// end builds; the returned stop function is called when that
	// coordinator is replaced or the front end shuts down. internal/ha
	// attaches its health monitor here.
	OnSession func(*Coordinator) (stop func())
	// MaxLineBytes bounds one request line (default 64 MiB).
	MaxLineBytes int
	// MaxGraphSize bounds |V|+|E| of gen/load graphs (default 50M).
	MaxGraphSize int
	// IdleTimeout closes connections with no request for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...interface{})
}

// DurableState is the journal backing of a durable front-end session:
// the journal that receives graph, update and watch records, and the
// state recovered from it at startup (nil/empty on a fresh directory).
type DurableState struct {
	Journal UpdateJournal
	// Graph is the recovered authoritative graph to serve immediately,
	// nil when the journal directory held no state.
	Graph *graph.Graph
	// Watches maps recovered watch names to their pattern DSL; they are
	// re-registered when the recovered graph's cluster is built. Names
	// are coordinator-global: tenant-encoded (tenant.GlobalName) when
	// written by this build, bare legacy names from older journals.
	Watches map[string]string
}

func (c *FrontendConfig) fill() {
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 64 << 20
	}
	if c.MaxGraphSize <= 0 {
		c.MaxGraphSize = 50_000_000
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Frontend exposes a Coordinator through the qgpd wire protocol, so any
// existing client (internal/client, netcat, the examples) can talk to a
// cluster exactly as it talks to a single server.
//
// Every connection shares ONE cluster — one fragmentation, one
// coordinator write path — and the tenant layer (internal/tenant) gives
// each connection (or named session, via the session command) a private
// watch namespace with quotas and lifecycle. Reads are routed to the
// least-loaded live copy of each fragment, fenced by the tenant's last
// write so a session never misses its own update.
//
// Commands gen, load, match, update, watch, unwatch, stats, partition,
// metrics, explain, profile, ping, session, sessions, endsession and
// deltas are served; commands that only make sense against a local graph
// (pmatch, rule, rpqfilter) report an error naming the limitation.
type Frontend struct {
	cfg     FrontendConfig
	tenants *tenant.Manager

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	shutdown bool
	wg       sync.WaitGroup

	// smu guards the cluster bookkeeping (rebuilds, lazy durable
	// recovery); requests snapshot the coordinator under smu and then run
	// concurrently — the coordinator's own RWMutex serializes writes
	// against routed reads. coord is only written under smu, but Health
	// loads it without smu, which a rebuild holds across NewWorkers and
	// fragment shipping.
	smu       sync.Mutex
	coord     atomic.Pointer[Coordinator]
	stop      func() // OnSession cleanup for coord (e.g. a health monitor)
	recovered bool   // durable recovery applied (or superseded by gen/load)
}

// NewFrontend returns a front-end server for one shared cluster.
func NewFrontend(cfg FrontendConfig) *Frontend {
	cfg.fill()
	tcfg := cfg.Tenancy
	if tcfg.Logf == nil {
		tcfg.Logf = cfg.Logf
	}
	if tcfg.Metrics == nil {
		tcfg.Metrics = cfg.Cluster.Metrics
	}
	f := &Frontend{cfg: cfg, conns: make(map[net.Conn]bool)}
	f.tenants = tenant.NewManager(tcfg, f)
	f.tenants.Start()
	return f
}

// Tenants exposes the tenant manager for supervision and tests.
func (f *Frontend) Tenants() *tenant.Manager { return f.tenants }

// Serve accepts connections until Shutdown. It always returns a non-nil
// error; after Shutdown the error is net.ErrClosed.
func (f *Frontend) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.shutdown {
		f.mu.Unlock()
		return net.ErrClosed
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		f.mu.Lock()
		if f.shutdown {
			f.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		f.conns[conn] = true
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			f.ServeConn(conn)
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, closes the listener and all connections,
// waits for in-flight handlers (or the context), and releases the
// cluster's coordinator and workers.
func (f *Frontend) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.shutdown = true
	if f.ln != nil {
		f.ln.Close()
	}
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()

	// Stop the idle sweeper before waiting on handlers: it does not
	// depend on them, and the deadline return below must not leak a
	// goroutine that would keep evicting (Unwatch round trips) against a
	// coordinator the caller is about to close. The sweeper never blocks
	// indefinitely — an in-flight EvictIdle's fan-outs run against the
	// still-open cluster with bounded failover retries.
	f.tenants.Stop()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// A handler may still hold smu; skip the cluster teardown rather
		// than block past the caller's deadline.
		return ctx.Err()
	}
	// All handlers have returned, so smu is free.
	f.smu.Lock()
	f.closeCluster()
	f.smu.Unlock()
	return nil
}

// closeCluster tears the current cluster down: the supervisor hook is
// stopped, Health stops reporting it, and the coordinator releases every
// worker transport it owns (including pool-acquired replicas). Callers
// hold smu.
func (f *Frontend) closeCluster() {
	if f.stop != nil {
		f.stop()
		f.stop = nil
	}
	if coord := f.coord.Swap(nil); coord != nil {
		coord.Close()
	}
}

// connState is one connection's tenant attachment. ServeProtocol serves
// one request at a time per connection, so connState needs no lock.
type connState struct {
	tenant    string // attached tenant session; "" until first use
	ephemeral bool   // created for this connection; evict on disconnect
}

// ServeConn serves the protocol on one established connection and blocks
// until it closes. The request loop itself is the server package's
// ServeProtocol, so framing cannot diverge between qgpd and qgpcluster.
func (f *Frontend) ServeConn(conn net.Conn) {
	cs := &connState{}
	defer func() {
		// A dropped connection — graceful or abrupt — releases its tenant
		// attachment: an ephemeral session is evicted with its last
		// connection, a named one lingers until idle timeout.
		if cs.tenant != "" {
			f.tenants.Release(cs.tenant, cs.ephemeral)
		}
	}()
	server.ServeProtocol(conn, server.ProtocolConfig{
		MaxLineBytes: f.cfg.MaxLineBytes,
		IdleTimeout:  f.cfg.IdleTimeout,
		Logf:         f.cfg.Logf,
		Name:         "cluster frontend",
	}, func(req *server.Request) server.Response { return f.handle(cs, req) })
}

func (f *Frontend) handle(cs *connState, req *server.Request) server.Response {
	start := time.Now()
	var resp server.Response
	if err := f.dispatch(cs, req, &resp); err != nil {
		resp.Error = err.Error()
		var thr *tenant.ErrThrottled
		if errors.As(err, &thr) {
			// Typed retry-after on the wire: a throttled client backs off
			// this long instead of guessing (or hammering).
			resp.RetryAfterMS = float64(thr.RetryAfter.Microseconds()) / 1000
		}
	} else if cs.tenant != "" {
		// Per-tenant latency: served commands land in the tenant's
		// match.ms/update.ms histograms (windowed p95 via obs.Windows).
		// Errors and rejections stay out — a throttle refusal costing
		// microseconds would mask the tenant's real service latency.
		if op := observeClass(req); op != "" {
			f.tenants.Observe(cs.tenant, op, start)
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp
}

// admissionClass maps a wire command to its admission-control class:
// "update" for writes, "match" for routed reads, "" for free commands.
// Drains are deliberately free — refusing deltas would keep a throttled
// tenant's inbox full, the opposite of what the bounded-inbox design
// wants — as are the session and observability commands.
func admissionClass(req *server.Request) string {
	switch req.Cmd {
	case "update":
		return "update"
	case "match", "explain":
		return "match"
	case "profile":
		if len(req.Updates) > 0 {
			return "update"
		}
		return "match"
	}
	return ""
}

// observeClass is admissionClass plus watch registrations, whose
// initial-answer evaluation is read work.
func observeClass(req *server.Request) string {
	if req.Cmd == "watch" {
		return "match"
	}
	return admissionClass(req)
}

// dispatch is the front end's one command switch.
func (f *Frontend) dispatch(cs *connState, req *server.Request, resp *server.Response) error {
	switch req.Cmd {
	case "ping":
		resp.Pong = true
		return nil
	case "gen", "load":
		return f.handleGraph(req, resp)
	case "metrics":
		resp.Obs = f.cfg.Cluster.Metrics.JSON()
		return nil
	case "session":
		return f.handleSession(cs, req, resp)
	case "sessions":
		resp.Tenants = f.tenants.List()
		return nil
	case "endsession":
		return f.handleEndSession(cs, req, resp)
	case "deltas":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		ds, err := f.tenants.Drain(cs.tenant)
		if err != nil {
			return err
		}
		resp.Deltas = ds
		resp.Session = cs.tenant
		return nil
	case "watch":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		if err := f.tenants.Admit(cs.tenant, "watch"); err != nil {
			return err
		}
		q, err := core.Parse(req.Pattern)
		if err != nil {
			return err
		}
		// The tenant manager registers the encoded global name through
		// this front end (tenant.Registrar), reaching the coordinator
		// underneath.
		answers, err := f.tenants.Watch(cs.tenant, req.Watch, q)
		if err != nil {
			return err
		}
		server.FillMatches(resp, answers, req.Limit)
		resp.Session = cs.tenant
		return nil
	case "unwatch":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		return f.tenants.Unwatch(cs.tenant, req.Watch)
	case "match":
		return f.handleMatch(cs, req, resp)
	case "update":
		return f.handleUpdate(cs, req, resp)
	case "stats":
		return f.handleStats(cs, req, resp)
	case "partition":
		return f.handlePartition(resp)
	case "explain":
		return f.handleExplain(cs, req, resp)
	case "profile":
		return f.handleProfile(cs, req, resp)
	case "pmatch", "rule", "rpqfilter", "fragment", "assign":
		return fmt.Errorf("command %q is not served by the cluster front end; connect to a worker qgpd for it", req.Cmd)
	default:
		return fmt.Errorf("unknown command %q", req.Cmd)
	}
}

// ensureTenant lazily attaches the connection to a fresh ephemeral
// session: a client that never sends the session command still gets a
// private watch namespace and a read-your-writes fence, scoped to its
// connection. An ephemeral session ended from another connection is
// replaced the same way; a named one is not, since its client chose the
// name and can send session again.
func (f *Frontend) ensureTenant(cs *connState) error {
	if cs.tenant != "" && (!cs.ephemeral || f.tenants.Has(cs.tenant)) {
		return nil
	}
	name, err := f.tenants.Attach("")
	if err != nil {
		return err
	}
	cs.tenant, cs.ephemeral = name, true
	return nil
}

// admitted returns the current coordinator for a cluster command, after
// charging the command to the connection's tenant when it costs the
// cluster work. Attaching first means even a session-less client's first
// match is accounted to (and limited by) its ephemeral tenant.
func (f *Frontend) admitted(cs *connState, req *server.Request) (*Coordinator, error) {
	coord, err := f.current()
	if err != nil {
		return nil, err
	}
	if op := admissionClass(req); op != "" {
		if err := f.ensureTenant(cs); err != nil {
			return nil, err
		}
		if err := f.tenants.Admit(cs.tenant, op); err != nil {
			return nil, err
		}
	}
	return coord, nil
}

func (f *Frontend) handleSession(cs *connState, req *server.Request, resp *server.Response) error {
	name, err := f.tenants.Attach(req.Session)
	if err != nil {
		return err
	}
	switch {
	case cs.tenant == name:
		// Re-attach to the current session: drop the extra hold.
		f.tenants.Release(name, false)
	case cs.tenant != "":
		f.tenants.Release(cs.tenant, cs.ephemeral)
		fallthrough
	default:
		cs.tenant, cs.ephemeral = name, req.Session == ""
	}
	resp.Session = name
	return nil
}

func (f *Frontend) handleEndSession(cs *connState, req *server.Request, resp *server.Response) error {
	target := req.Session
	if target == "" {
		if cs.tenant == "" {
			return errors.New("endsession: no session attached to this connection")
		}
		target = cs.tenant
	}
	f.tenants.Evict(target)
	if target == cs.tenant {
		cs.tenant, cs.ephemeral = "", false
	}
	resp.Session = target
	return nil
}

// current returns the current coordinator, applying lazy durable
// recovery on first use. A failed recovery is returned to the requesting
// client and retried on the next request.
func (f *Frontend) current() (*Coordinator, error) {
	f.smu.Lock()
	defer f.smu.Unlock()
	if err := f.recoverLocked(); err != nil {
		return nil, err
	}
	coord := f.coord.Load()
	if coord == nil {
		return nil, errNoCluster
	}
	return coord, nil
}

// recoverLocked builds the cluster from journal-recovered state on the
// first request after a durable restart: the graph is re-fragmented and
// re-shipped, every recovered watch re-registered under its global name,
// and the tenant manager's per-session watch tables rebuilt by decoding
// those names. Callers hold smu.
func (f *Frontend) recoverLocked() error {
	if f.recovered {
		return nil
	}
	if f.cfg.Durable == nil || f.cfg.Durable.Graph == nil {
		f.recovered = true
		return nil
	}
	if err := f.buildCluster(f.cfg.Durable.Graph, true); err != nil {
		return fmt.Errorf("recovering journaled cluster: %w", err)
	}
	coord := f.coord.Load()
	for _, name := range sortedKeys(f.cfg.Durable.Watches) {
		q, err := core.Parse(f.cfg.Durable.Watches[name])
		if err == nil {
			_, err = coord.Watch(name, q)
		}
		if err != nil {
			f.closeCluster()
			return fmt.Errorf("recovering watch %q: %w", name, err)
		}
	}
	tables := make(map[string]map[string]string)
	for name, pattern := range f.cfg.Durable.Watches {
		tn, w := tenant.SplitName(name)
		if tables[tn] == nil {
			tables[tn] = make(map[string]string)
		}
		tables[tn][w] = pattern
	}
	f.tenants.Restore(tables)
	f.recovered = true
	return nil
}

// handleGraph serves gen and load: the one cluster is rebuilt and every
// tenant's watch table reset (their watches and version fences died with
// the old coordinator).
func (f *Frontend) handleGraph(req *server.Request, resp *server.Response) error {
	// The construction is shared with the single server, so the two
	// gen/load vocabularies cannot diverge.
	g, err := server.BuildGraph(req)
	if err != nil {
		return err
	}
	if g.Size() > f.cfg.MaxGraphSize {
		return fmt.Errorf("graph size %d exceeds front-end cap %d", g.Size(), f.cfg.MaxGraphSize)
	}
	f.smu.Lock()
	defer f.smu.Unlock()
	f.recovered = true // an explicit graph supersedes journal recovery
	if err := f.buildCluster(g, f.cfg.Durable != nil); err != nil {
		return err
	}
	f.tenants.Reset()
	g = f.coord.Load().Graph() // normalized version
	resp.Nodes, resp.Edges = g.NumNodes(), g.NumEdges()
	return nil
}

// Watch implements tenant.Registrar: tenant watches land on the current
// coordinator under their encoded global names. Indirecting through the
// front end rather than capturing a coordinator keeps the registrar valid
// across graph rebuilds.
func (f *Frontend) Watch(name string, q *core.Pattern) ([]graph.NodeID, error) {
	coord, err := f.current()
	if err != nil {
		return nil, err
	}
	return coord.Watch(name, q)
}

// Unwatch implements tenant.Registrar.
func (f *Frontend) Unwatch(name string) error {
	coord, err := f.current()
	if err != nil {
		return err
	}
	return coord.Unwatch(name)
}

// ClusterHealth is the live cluster's slice of the front end's /healthz
// document.
type ClusterHealth struct {
	Fragments []FragmentHealth `json:"fragments"`
	Error     string           `json:"error,omitempty"`
}

// Health reports the topology and per-fragment liveness of the live
// cluster, shaped for the debug listener's /healthz endpoint. With no
// cluster yet (no client has loaded a graph, or a rebuild is in
// progress) the document is healthy but empty. The error is non-nil — a
// 503 from the debug handler — when the cluster has fail-stopped or a
// fragment's primary fails its probe. Health does not take smu, so it
// answers while a rebuild or durable recovery holds it.
func (f *Frontend) Health() (interface{}, error) {
	doc := struct {
		Status   string          `json:"status"`
		Sessions int             `json:"sessions"`
		Clusters []ClusterHealth `json:"clusters,omitempty"`
	}{Status: "ok"}
	coord := f.coord.Load()
	if coord == nil {
		return doc, nil
	}
	fhs, err := coord.Health()
	ch := ClusterHealth{Fragments: fhs}
	if err != nil {
		ch.Error = err.Error()
	} else {
		for _, fh := range fhs {
			if !fh.PrimaryAlive {
				err = fmt.Errorf("fragment %d primary failed its probe: %s", fh.Fragment, fh.PrimaryError)
				break
			}
		}
	}
	doc.Sessions, doc.Clusters = 1, []ClusterHealth{ch}
	if err != nil {
		doc.Status = "degraded"
	}
	return doc, err
}

var errNoCluster = errors.New("no graph loaded: run gen or load first")

// buildCluster replaces the coordinator with a fresh one over g: fresh
// worker transports, and for a durable front end the journal is attached
// (cluster.New records g as the new durable graph). Callers hold smu.
func (f *Frontend) buildCluster(g *graph.Graph, durable bool) error {
	// The old cluster's sessions are released first: a failed rebuild
	// leaves the front end refusing queries (errNoCluster) rather than
	// serving a graph the client believes it replaced.
	f.closeCluster()
	ts, err := f.cfg.NewWorkers()
	if err != nil {
		return fmt.Errorf("workers: %w", err)
	}
	if len(ts) == 0 {
		return errors.New("workers: NewWorkers returned an empty set")
	}
	ccfg := f.cfg.Cluster
	if durable {
		ccfg.Journal = f.cfg.Durable.Journal
	} else {
		ccfg.Journal = nil
	}
	if ccfg.MaxWatches == 0 {
		// The one coordinator aggregates every tenant's watches; quotas
		// are per tenant in the manager, so a per-session cap makes no
		// sense here. An explicit positive cap is respected.
		ccfg.MaxWatches = -1
	}
	coord, err := New(g, ts, ccfg)
	if err != nil {
		CloseAll(ts) // New failed: ownership stayed with us
		return err
	}
	f.coord.Store(coord)
	if f.cfg.OnSession != nil {
		f.stop = f.cfg.OnSession(coord)
	}
	return nil
}

func (f *Frontend) handleMatch(cs *connState, req *server.Request, resp *server.Response) error {
	coord, err := f.admitted(cs, req)
	if err != nil {
		return err
	}
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	res, err := coord.MatchWith(q, f.matchOptions(cs, req))
	if err != nil {
		return err
	}
	server.FillMatches(resp, res.Matches, req.Limit)
	resp.Metrics = &res.Metrics
	return nil
}

// matchOptions builds a read's options; the tenant's reads are fenced at
// its last accepted write, so replica routing can never serve it a copy
// that predates its own update.
func (f *Frontend) matchOptions(cs *connState, req *server.Request) *MatchOptions {
	return &MatchOptions{
		Engine:     req.Engine,
		Budget:     req.Budget,
		Planner:    req.Planner,
		MinVersion: f.tenants.NoteRead(cs.tenant),
	}
}

// checkClientUpdate rejects the combined-batch fields: they are
// coordinator→worker routing, not client vocabulary, since the
// coordinator computes assignment and the affected set itself. Reject
// rather than silently drop them, as with the other worker-only commands.
func checkClientUpdate(req *server.Request) error {
	if len(req.Owned) > 0 || req.Scoped || len(req.Affected) > 0 {
		return fmt.Errorf("update fields owned/scoped/affected are not served by the cluster front end; the coordinator computes routing itself")
	}
	return nil
}

func (f *Frontend) handleUpdate(cs *connState, req *server.Request, resp *server.Response) error {
	coord, err := f.admitted(cs, req)
	if err != nil {
		return err
	}
	if err := checkClientUpdate(req); err != nil {
		return err
	}
	res, err := coord.Update(req.Updates)
	if err != nil {
		return err
	}
	f.finishWrite(cs, res, resp)
	return nil
}

// finishWrite routes an accepted update's deltas and fence: the writer
// gets only its own namespace's deltas back (other tenants drain theirs
// with the deltas command) and its fence advances to the batch's version
// token.
func (f *Frontend) finishWrite(cs *connState, res *UpdateResult, resp *server.Response) {
	resp.Nodes, resp.Edges = res.Nodes, res.Edges
	resp.Deltas = f.tenants.RecordDeltas(cs.tenant, res.Deltas)
	f.tenants.NoteWrite(cs.tenant, res.Version)
	// Post-paid budget accounting: the batch's real cost — the size of
	// the re-verification region the coordinator computed — is debited
	// now that it is known. See tenant.Config.AffectedPerSec.
	f.tenants.ChargeAffected(cs.tenant, res.AffectedSize)
	resp.Session = cs.tenant
}

// handleExplain fans the plan-only command out and returns the merged
// per-fragment plan documents in Profile.
func (f *Frontend) handleExplain(cs *connState, req *server.Request, resp *server.Response) error {
	coord, err := f.admitted(cs, req)
	if err != nil {
		return err
	}
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	ex, err := coord.Explain(q)
	if err != nil {
		return err
	}
	return fillProfile(resp, ex)
}

// handleProfile dispatches like the single server's profile command: a
// pattern profiles a cluster match, an update batch profiles the
// maintenance pipeline. The merged cluster-level document travels in
// Profile with each worker's own document embedded verbatim.
func (f *Frontend) handleProfile(cs *connState, req *server.Request, resp *server.Response) error {
	coord, err := f.admitted(cs, req)
	if err != nil {
		return err
	}
	switch {
	case len(req.Updates) > 0:
		if err := checkClientUpdate(req); err != nil {
			return err
		}
		res, prof, err := coord.UpdateProfiled(req.Updates)
		if err != nil {
			return err
		}
		f.finishWrite(cs, res, resp)
		return fillProfile(resp, prof)
	case req.Pattern != "":
		q, err := core.Parse(req.Pattern)
		if err != nil {
			return err
		}
		res, prof, err := coord.ProfileMatch(q, f.matchOptions(cs, req))
		if err != nil {
			return err
		}
		server.FillMatches(resp, res.Matches, req.Limit)
		resp.Metrics = &res.Metrics
		return fillProfile(resp, prof)
	default:
		return fmt.Errorf("profile: request carries neither a pattern nor an update batch")
	}
}

// fillProfile serializes a merged profile document into the response.
func fillProfile(resp *server.Response, doc interface{}) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	resp.Profile = b
	return nil
}

// handleStats serves statistics by fanning out to the fragment copies
// through the replica-read router (Coordinator.Stats): the front end
// never clones the authoritative graph, so a stats burst neither pins
// the front-end process nor blocks behind writers. The rows render
// through server.FillStatsRows, the single server's code path, so the
// TopK cap and output format cannot drift.
func (f *Frontend) handleStats(cs *connState, req *server.Request, resp *server.Response) error {
	coord, err := f.current()
	if err != nil {
		return err
	}
	// Fenced like a match: a tenant's stats reflect its own writes even
	// when served from a replica. A connection with no session yet has
	// no fence.
	cst, err := coord.Stats(f.tenants.Fence(cs.tenant))
	if err != nil {
		return err
	}
	server.FillStatsRows(resp, cst.Nodes, cst.Edges, cst.Labels, cst.Rows, req.TopK)
	return nil
}

// handlePartition reports the live fragmentation. Pure coordinator
// bookkeeping under its read lock — no worker round trips, so nothing
// to route.
func (f *Frontend) handlePartition(resp *server.Response) error {
	coord, err := f.current()
	if err != nil {
		return err
	}
	sizes := coord.FragmentSizes()
	resp.Fragments = sizes
	// Skew over non-empty fragments only (partition.SkewOf, shared with
	// the partition command): an empty fragment means the graph populated
	// fewer workers, not that a balanced partition is maximally skewed.
	resp.Skew = partition.SkewOf(sizes)
	return nil
}
