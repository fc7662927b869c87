package match

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// realizedKey identifies the pair (pattern edge, image of its source).
type realizedKey struct {
	edge int
	v    graph.NodeID
}

// evalPositive computes the focus matches of a compiled positive pattern.
//
// Semantics (§2.2, flat counting): vx matches iff there is a stratified
// isomorphism h0 with h0(xo) = vx such that for every edge e = (u, u′),
// |Me(vx, h0(u), Q)| satisfies f(e), where Me collects the distinct
// children of h0(u) realized by ANY stratified isomorphism anchored at vx.
// Counting therefore runs over the stratified-sound candidate sets
// (pr.cand); only acceptance may use the threshold-filtered sets.
//
// restrict, when non-nil, limits the focus candidates (used by IncQMatch
// and by parallel workers); it is sorted and duplicate-free. earlyAccept
// enables QMatch's early termination: once some isomorphism's images all
// meet their (monotone) thresholds, vx is accepted without exhausting the
// search.
func evalPositive(pr *program, restrict []graph.NodeID, earlyAccept bool, m *Metrics) []graph.NodeID {
	quantOut := make([][]int, len(pr.p.Nodes))
	for _, ei := range pr.quant {
		e := pr.p.Edges[ei]
		quantOut[e.From] = append(quantOut[e.From], ei)
	}

	var answers []graph.NodeID
	pr.eachFocus(restrict, func(vx graph.NodeID) bool {
		m.FocusCandidates++
		if pr.matchFocus(vx, quantOut, earlyAccept, m) {
			answers = append(answers, vx)
		}
		return !pr.budgetExceeded
	})
	if pr.budgetExceeded {
		return nil
	}
	return answers
}

// matchFocus decides whether vx is a match of the focus.
func (pr *program) matchFocus(vx graph.NodeID, quantOut [][]int, earlyAccept bool, m *Metrics) bool {
	if len(pr.quant) == 0 {
		// Conventional pattern: existence of one isomorphism suffices.
		found := false
		pr.run(vx, pr.accept, nil, m, func([]graph.NodeID) bool {
			found = true
			return false
		})
		return found
	}

	realized := make(map[realizedKey]map[graph.NodeID]struct{})
	foundAny := false
	accepted := false
	canEarly := earlyAccept && !pr.hasEQ

	pr.run(vx, pr.cand, nil, m, func(assign []graph.NodeID) bool {
		foundAny = true
		for _, ei := range pr.quant {
			e := pr.p.Edges[ei]
			k := realizedKey{ei, assign[e.From]}
			s := realized[k]
			if s == nil {
				s = make(map[graph.NodeID]struct{})
				realized[k] = s
			}
			s[assign[e.To]] = struct{}{}
		}
		if canEarly && pr.imagesSatisfied(assign, realized) {
			accepted = true
			m.EarlyAccepts++
			return false
		}
		return true
	})
	if accepted {
		return true
	}
	if !foundAny {
		return false
	}

	// Counts are now exact. Search for one isomorphism whose images are all
	// count-valid, pruning candidates through the per-node count filter.
	m.AcceptSearches++
	countOK := func(u int, w graph.NodeID) bool {
		for _, ei := range quantOut[u] {
			e := pr.p.Edges[ei]
			total := pr.g.CountOut(w, pr.edgeLabel[ei])
			if !e.Q.Satisfied(len(realized[realizedKey{ei, w}]), total) {
				return false
			}
		}
		return true
	}
	if !countOK(pr.p.Focus, vx) {
		return false
	}
	ok := false
	pr.run(vx, pr.accept, countOK, m, func([]graph.NodeID) bool {
		ok = true
		return false
	})
	return ok
}

// imagesSatisfied reports whether every image of the current isomorphism
// already meets its quantifier with the (monotonically growing) realized
// counts. Only sound for GE and universal-EQ quantifiers.
func (pr *program) imagesSatisfied(assign []graph.NodeID, realized map[realizedKey]map[graph.NodeID]struct{}) bool {
	for _, ei := range pr.quant {
		e := pr.p.Edges[ei]
		v := assign[e.From]
		total := pr.g.CountOut(v, pr.edgeLabel[ei])
		need, ok := e.Q.Threshold(total)
		if !ok {
			return false
		}
		cur := len(realized[realizedKey{ei, v}])
		switch {
		case e.Q.Op() == core.GE:
			if cur < need {
				return false
			}
		default: // universal EQ: need == total, counts cannot overshoot
			if cur != need {
				return false
			}
		}
	}
	return true
}
