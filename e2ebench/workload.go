package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/server"
)

// workload is one traffic mix over one cluster shape.
type workload struct {
	name      string
	why       string
	persons   int  // social graph size (gen "social", n persons)
	d         int  // fragmentation radius
	workers   int  // primaries
	endpoints int  // spawn-pool endpoints
	replicas  int  // copies of each fragment
	journal   bool // journal the shared session (fsync off)
	// residents makes the workload match residentsPattern instead of the
	// generated pool.
	residents bool
	// staticAnswers marks workloads whose writes never change the
	// answers of the patterns they match, so every match is checked.
	staticAnswers bool
	// writeLabel is the edge label of every written edge; lifecycle adds
	// and removes fresh persons too.
	writeLabel string
	lifecycle  bool
	// watches lists, per tenant, the indexes into watchPatterns it
	// registers; nil registers none.
	watches [][]int
	// segments split the timed phase; both tenants move to the next
	// segment together.
	segments []segment
}

// segment is a share of the timed phase and its op schedule: next
// returns the kind of the tenant's op i within the segment.
type segment struct {
	share float64
	next  func(i int) opKind
}

func only(k opKind) func(int) opKind { return func(int) opKind { return k } }

// cycles repeats segs n times, each at 1/n of its share, so every op
// stream is sampled across the whole timed phase rather than in one
// stretch of it.
func cycles(n int, segs ...segment) []segment {
	var out []segment
	for i := 0; i < n; i++ {
		for _, s := range segs {
			out = append(out, segment{s.share / float64(n), s.next})
		}
	}
	return out
}

type opKind int

const (
	opMatch opKind = iota
	opUpdate
	opDrain
)

// watchPatterns are four distinct 1-hop QGPs, one per quantifier kind the
// paper adds: numeric (>=k), ratio (>=p%), existence, and negation (=0).
var watchPatterns = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=8\n",
	"qgp\nn xo person *\nn y person\nn z album\ne xo y follow >=3\ne xo z like >=60%\n",
	"qgp\nn xo person *\nn z person\nn c club\ne xo z follow\ne xo c in\n",
	"qgp\nn xo person *\nn z person\nn y person\ne xo z follow >=2\ne y xo follow =0\n",
}

var workloads = []*workload{
	// match-read is not in BENCHMARK.json: mixed-durable matches the same
	// pool, and two workloads leave time for 30 s runs. It stays for
	// measuring the engine alone by hand.
	{
		name:    "match-read",
		why:     "2 tenants cycle 48 generated 2-hop QGPs (n=5k, D=2) for 4/5 of the run: engine and answer codec do the work; the last 1/5 writes an edge label no pattern reads",
		persons: 5000, d: 2, workers: 2, endpoints: 2, replicas: 1, staticAnswers: true, writeLabel: "visit",
		// Reads first, then writes: an update waiting out the other
		// tenant's match would measure the lock wait, not the write path.
		segments: []segment{{0.8, only(opMatch)}, {0.2, only(opUpdate)}},
	},
	{
		name:    "watch-update",
		why:     "8 standing 1-hop watches on n=20k, D=1 under small follow batches for 3/5 of each of 5 cycles, city matches the other 2/5: worker re-verify and per-watch compile dominate",
		persons: 20000, d: 1, workers: 2, endpoints: 2, replicas: 1, residents: true, staticAnswers: true,
		writeLabel: "follow", lifecycle: true,
		watches: [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}},
		// Writes and reads in separate stretches: a match that waits out
		// the other tenant's update would measure the lock wait.
		segments: cycles(5, segment{0.6, func(i int) opKind {
			if i%16 == 15 {
				return opDrain
			}
			return opUpdate
		}}, segment{0.4, only(opMatch)}),
	},
	{
		name:    "mixed-durable",
		why:     "3 fenced matches then 1 journaled update per tenant, 2 primaries x 2 copies: reads and writes share the coordinator lock, writes mirror to replicas and journal",
		persons: 5000, d: 2, workers: 2, endpoints: 4, replicas: 2, journal: true,
		writeLabel: "follow", lifecycle: true,
		watches: [][]int{{0}, {3}},
		segments: []segment{{1, func(i int) opKind {
			if i%16 == 15 {
				return opDrain
			}
			if i%4 == 3 {
				return opUpdate
			}
			return opMatch
		}}},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are the workload's seeded inputs, made before any timing starts:
// the graph the front end's gen command will build, normalized exactly as
// the coordinator normalizes it, and the match pool.
type inputs struct {
	g    *graph.Graph
	pool []poolPattern
}

type poolPattern struct {
	dsl string
	q   *core.Pattern
}

// Pool filter: the §7 generator's shape (|VQ|=4, pa=30%, |E-Q| in {0,1})
// kept only when fragment-local evaluation at radius 2 is exact and the
// single-process extension count lies in a fixed band. The pool then takes
// poolPerCell patterns from each cell of a grid: the bands of
// single-process focus candidates by the two halves of the extension band.
// Match cost on the cluster follows the candidate count most closely, so
// fixing the pool's candidate profile keeps the work of different seeds
// comparable: the first 24 in-band patterns of ten seeds averaged 1,731 to
// 2,539 candidates, 24 taken 6 per band 2,168 to 2,502. Candidates alone
// still left the median pool pattern at 42,009 to 54,531 extensions over
// seeds 401-410, and mixed-durable's match_p50_ms followed it, 13 ms
// against 17 ms; the halves pin the median to the split.
const (
	poolMinExt     = 20_000
	poolMaxExt     = 100_000
	poolExtSplit   = 50_000
	poolPerCell    = 6
	poolCandidates = 3000 // generator draws before giving up
)

// poolStrata are the lower bounds of the focus-candidate bands.
var poolStrata = []int{0, 1500, 2300, 3000}

// residentsPattern is watch-update's read: cities and their residents.
// Its answers do not depend on follow edges or on persons without an
// "in" edge, so the workload's writes never change them and every answer
// is checked against the single-process engine.
const residentsPattern = "qgp\nn xo city *\nn p person\ne p xo in\n"

func makeInputs(w *workload, seed int64) (*inputs, error) {
	g, err := normalizedSocial(w.persons, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{g: g}
	if w.residents {
		q, err := core.Parse(residentsPattern)
		if err != nil {
			return nil, err
		}
		in.pool = []poolPattern{{dsl: residentsPattern, q: q}}
		return in, nil
	}
	taken := make([]int, 2*len(poolStrata)) // per cell: band*2 + extension half
	want := poolPerCell * len(taken)
	for i := 0; i < poolCandidates && len(in.pool) < want; i++ {
		q := gen.Pattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: i % 2, Seed: seed*1_000_003 + int64(i)})
		if parallel.RequiredHops(q) > 2 {
			continue
		}
		res, err := match.QMatch(g, q, &match.Options{ExtensionBudget: poolMaxExt + 1})
		if err != nil || res.Metrics.Extensions < poolMinExt {
			continue // over the band (budget exceeded) or under it
		}
		s := len(poolStrata) - 1
		for res.Metrics.FocusCandidates < poolStrata[s] {
			s--
		}
		cell := 2 * s
		if res.Metrics.Extensions >= poolExtSplit {
			cell++
		}
		if taken[cell] == poolPerCell {
			continue
		}
		taken[cell]++
		// The oracle evaluates what the front end parses, not the
		// generator's value.
		dsl := q.String()
		parsed, err := core.Parse(dsl)
		if err != nil {
			return nil, fmt.Errorf("pool pattern does not round-trip: %v", err)
		}
		in.pool = append(in.pool, poolPattern{dsl: dsl, q: parsed})
	}
	if len(in.pool) < want {
		return nil, fmt.Errorf("only %d of %d pool patterns passed the filter", len(in.pool), want)
	}
	return in, nil
}

// warmUpTime is the untimed run of every segment before a timed phase.
const warmUpTime = 2 * time.Second

// opLog is what one tenant saw during a timed phase.
type opLog struct {
	matchRTT, updateRTT       []time.Duration
	matchHandle, updateHandle []float64 // front-end Response.ElapsedMS
	matchMetrics              []match.Metrics
	attempted, failed         int
	drains, drainedDeltas     int
	resyncs                   int
	affected                  []int // sum of WatchDelta.Affected per own update
	answers                   []answerObs
	batches                   []sentBatch
	stopped                   time.Time
}

// clearTimed drops what a timed phase reports, keeping the op counts,
// the answers and the batches the post-run check needs.
func (l *opLog) clearTimed() {
	l.matchRTT, l.updateRTT = nil, nil
	l.matchHandle, l.updateHandle = nil, nil
	l.matchMetrics, l.affected = nil, nil
	l.drains, l.drainedDeltas, l.resyncs = 0, 0, 0
}

// answerObs is one match answer, reduced to a hash for the post-run check.
type answerObs struct {
	pattern int
	total   int
	hash    uint64
}

// sentBatch is one accepted update batch, with the global node count
// after it: node counts only grow, and a batch that adds a node is the
// only one that moves it, so the count orders the two tenants' batches
// wherever their order matters (see replayOrder).
type sentBatch struct {
	specs      []server.UpdateSpec
	nodesAfter int
	addsNode   bool
	tenant     int
	seq        int
}

// tenantLoop is one named session's closed loop: it sends its next op only
// after the previous reply arrived.
type tenantLoop struct {
	id     int
	name   string
	c      *client.Client
	w      *workload
	in     *inputs
	rec    *recorder // nil when untraced
	gen    *batchGen
	watch  map[string]*watchView
	log    opLog
	cursor int // next pool or watch pattern to match
}

// watchView is a tenant's accumulated answer set of one watch: the
// initial answers, plus its own update deltas, plus drained deltas.
type watchView struct {
	pattern int
	ans     map[int64]bool
	resync  bool
}

func (t *tenantLoop) do(name string, req *server.Request) (*server.Response, time.Duration, error) {
	var id int64
	var start time.Time
	if t.rec != nil {
		id, start = t.rec.clientStart()
	} else {
		start = time.Now()
	}
	resp, err := t.c.Do(req)
	d := time.Since(start)
	if t.rec != nil {
		t.rec.clientEnd(id, name, start)
	}
	return resp, d, err
}

// run drives the closed loop until the deadline. A mismatch in what the
// front end returns is not an op failure; it surfaces in the post-run
// answer check.
func (t *tenantLoop) run(next func(int) opKind, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		t.log.attempted++
		var err error
		switch next(i) {
		case opMatch:
			err = t.match()
		case opUpdate:
			err = t.update()
		case opDrain:
			err = t.drain()
		}
		if err != nil {
			t.log.failed++
		}
	}
	t.log.stopped = time.Now()
}

func (t *tenantLoop) match() error {
	pi := t.cursor % len(t.in.pool)
	t.cursor++
	resp, d, err := t.do("client.match", &server.Request{Cmd: "match", Pattern: t.in.pool[pi].dsl})
	if err != nil {
		return err
	}
	t.log.matchRTT = append(t.log.matchRTT, d)
	t.log.matchHandle = append(t.log.matchHandle, resp.ElapsedMS)
	if resp.Metrics != nil {
		t.log.matchMetrics = append(t.log.matchMetrics, *resp.Metrics)
	}
	if t.w.staticAnswers {
		t.log.answers = append(t.log.answers, answerObs{pattern: pi, total: resp.Total, hash: hashIDs(resp.Matches)})
	}
	return nil
}

func (t *tenantLoop) update() error {
	specs, addsNode := t.gen.next()
	resp, d, err := t.do("client.update", &server.Request{Cmd: "update", Updates: specs})
	if err != nil {
		return err
	}
	t.log.updateRTT = append(t.log.updateRTT, d)
	t.log.updateHandle = append(t.log.updateHandle, resp.ElapsedMS)
	t.gen.accepted(specs, resp.Nodes)
	t.log.batches = append(t.log.batches, sentBatch{specs: specs, nodesAfter: resp.Nodes, addsNode: addsNode,
		tenant: t.id, seq: len(t.log.batches)})
	sum := 0
	for _, wd := range resp.Deltas {
		sum += wd.Affected
		t.apply(wd)
	}
	if len(t.watch) > 0 {
		t.log.affected = append(t.log.affected, sum)
	}
	return nil
}

func (t *tenantLoop) drain() error {
	resp, _, err := t.do("client.deltas", &server.Request{Cmd: "deltas"})
	if err != nil {
		return err
	}
	t.log.drains++
	t.log.drainedDeltas += len(resp.Deltas)
	for _, wd := range resp.Deltas {
		t.apply(wd)
	}
	return nil
}

func (t *tenantLoop) apply(wd server.WatchDelta) {
	v := t.watch[wd.Watch]
	if v == nil {
		return
	}
	if wd.Resync {
		t.log.resyncs++
		v.resync = true
		return
	}
	for _, id := range wd.Added {
		v.ans[id] = true
	}
	for _, id := range wd.Removed {
		delete(v.ans, id)
	}
}

func hashIDs(ids []int64) uint64 {
	s := append([]int64(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// batchGen makes one tenant's update batches. Every edit stays inside the
// tenant's own half of the persons (id%2 == tenant) plus the fresh persons
// it added itself, so for 1-hop watches the two tenants never change the
// answer of the same node: each node's deltas come from one writer, in
// order, and a tenant's accumulated view is exact however its own
// responses and drained deltas interleave.
type batchGen struct {
	rng       *rand.Rand
	g         *graph.Graph
	label     string        // edge label of every added and removed edge
	labelID   graph.LabelID // its id in g, for the absent-edge check
	lifecycle bool          // add and remove fresh persons
	own       []int64       // the tenant's original persons
	fresh     int64         // live person this tenant added, -1 when none
	live      [][2]int64
	liveSet   map[[2]int64]bool
	n         int // batches made
}

const (
	liveEdges      = 32 // added edges kept live before add/remove pairs start
	lifecycleEvery = 32 // every 32nd batch adds or removes a fresh person
)

func newBatchGen(g *graph.Graph, label string, lifecycle bool, persons, tenant int, rng *rand.Rand) *batchGen {
	b := &batchGen{rng: rng, g: g, label: label, labelID: g.LookupLabel(label), lifecycle: lifecycle,
		fresh: -1, liveSet: make(map[[2]int64]bool)}
	for p := tenant; p < persons; p += 2 {
		b.own = append(b.own, int64(p))
	}
	return b
}

func (b *batchGen) pick() int64 {
	if b.fresh >= 0 && b.rng.Intn(8) == 0 {
		return b.fresh
	}
	return b.own[b.rng.Intn(len(b.own))]
}

// newEdge returns an edge absent from the graph: never an original edge
// (those are never removed) and not one of the live added ones.
func (b *batchGen) newEdge() [2]int64 {
	for {
		e := [2]int64{b.pick(), b.pick()}
		if e[0] == e[1] || b.liveSet[e] {
			continue
		}
		if e[0] < int64(b.g.NumNodes()) && e[1] < int64(b.g.NumNodes()) &&
			b.g.HasEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), b.labelID) {
			continue
		}
		return e
	}
}

// next returns the next batch and whether it adds a node: one added edge,
// paired with the removal of the oldest live one once liveEdges are live,
// so the graph stays bounded; with lifecycle, every lifecycleEvery-th
// batch adds a fresh person or removes the live one instead.
func (b *batchGen) next() ([]server.UpdateSpec, bool) {
	b.n++
	if b.lifecycle && b.n%lifecycleEvery == 0 {
		if b.fresh < 0 {
			return []server.UpdateSpec{{Op: "addNode", Label: "person"}}, true
		}
		return []server.UpdateSpec{{Op: "removeNode", From: b.fresh}}, false
	}
	e := b.newEdge()
	specs := []server.UpdateSpec{{Op: "addEdge", From: e[0], To: e[1], Label: b.label}}
	if len(b.live) >= liveEdges {
		old := b.live[0]
		specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: old[0], To: old[1], Label: b.label})
	}
	return specs, false
}

// accepted commits a batch the front end applied; nodes is the global
// node count after it.
func (b *batchGen) accepted(specs []server.UpdateSpec, nodes int) {
	for _, s := range specs {
		e := [2]int64{s.From, s.To}
		switch s.Op {
		case "addNode":
			b.fresh = int64(nodes - 1)
		case "removeNode":
			b.dropIncident(s.From)
			b.fresh = -1
		case "addEdge":
			if !b.liveSet[e] {
				b.liveSet[e] = true
				b.live = append(b.live, e)
			}
		case "removeEdge":
			if b.liveSet[e] {
				delete(b.liveSet, e)
				for i, l := range b.live {
					if l == e {
						b.live = append(b.live[:i], b.live[i+1:]...)
						break
					}
				}
			}
		}
	}
}

func (b *batchGen) dropIncident(v int64) {
	kept := b.live[:0]
	for _, e := range b.live {
		if e[0] == v || e[1] == v {
			delete(b.liveSet, e)
			continue
		}
		kept = append(kept, e)
	}
	b.live = kept
}
