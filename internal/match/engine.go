package match

import (
	"repro/internal/bitset"
	"repro/internal/graph"
)

// Metrics records the work performed by an evaluation. The paper measures
// algorithms by their number of verifications (complete-isomorphism
// checks); Extensions counts candidate extension attempts (IsExtend calls
// in the generic Match of Fig. 4).
type Metrics struct {
	FocusCandidates int   // |C(xo)| after filtering
	Verifications   int   // complete isomorphisms inspected (Verify calls)
	Extensions      int64 // candidate extension attempts
	EarlyAccepts    int   // focus candidates accepted before exhaustive search
	AcceptSearches  int   // phase-2 acceptance searches (EQ quantifiers)
	IncRuns         int   // IncQMatch invocations (one per negated edge)
	IncCandidates   int   // focus candidates re-examined by IncQMatch
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.FocusCandidates += other.FocusCandidates
	m.Verifications += other.Verifications
	m.Extensions += other.Extensions
	m.EarlyAccepts += other.EarlyAccepts
	m.AcceptSearches += other.AcceptSearches
	m.IncRuns += other.IncRuns
	m.IncCandidates += other.IncCandidates
}

// run enumerates isomorphisms of the compiled pattern with the focus bound
// to vx, drawing each pattern node's images from sets (pr.cand for
// counting, pr.accept for acceptance) and, when filter is non-nil, only
// the images filter admits. onIso is invoked for every complete
// isomorphism; returning false stops the enumeration.
//
// assign is indexed by pattern node; the slice passed to onIso is reused
// across calls and must not be retained.
func (pr *program) run(vx graph.NodeID, sets []*bitset.Set, filter func(u int, w graph.NodeID) bool, m *Metrics, onIso func(assign []graph.NodeID) bool) {
	assign := make([]graph.NodeID, len(pr.p.Nodes))
	assign[pr.p.Focus] = vx

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pr.order) {
			m.Verifications++
			return onIso(assign)
		}
		u := pr.order[i]
		a := pr.anchors[i]
		e := pr.p.Edges[a.edge]
		l := pr.edgeLabel[a.edge]
		var edges []graph.Edge
		if a.out {
			edges = pr.g.OutByLabel(assign[e.From], l)
		} else {
			edges = pr.g.InByLabel(assign[e.To], l)
		}
		for _, ge := range edges {
			w := ge.To
			m.Extensions++
			if pr.budget > 0 && m.Extensions > pr.budget {
				pr.budgetExceeded = true
				return false
			}
			if !pr.in(sets, u, w) || pr.bound(i, w, assign) {
				continue
			}
			if (filter != nil && !filter(u, w)) || !pr.checkBoundEdges(i, u, w, assign) {
				continue
			}
			assign[u] = w
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(1)
}

// bound reports whether w is already the image of a node at positions
// before i — the injectivity test, a scan of at most |VQ| entries.
func (pr *program) bound(i int, w graph.NodeID, assign []graph.NodeID) bool {
	for _, u := range pr.order[:i] {
		if assign[u] == w {
			return true
		}
	}
	return false
}

// checkBoundEdges verifies the pattern edges that become fully bound when
// node u is assigned w.
func (pr *program) checkBoundEdges(i, u int, w graph.NodeID, assign []graph.NodeID) bool {
	for _, ei := range pr.checks[i] {
		e := pr.p.Edges[ei]
		l := pr.edgeLabel[ei]
		var from, to graph.NodeID
		if e.From == u {
			from, to = w, assign[e.To]
		} else {
			from, to = assign[e.From], w
		}
		if !pr.g.HasEdge(from, to, l) {
			return false
		}
	}
	return true
}
