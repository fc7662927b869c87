package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/server"
)

// replayResult holds the single-process layer timings of one replay; the
// same calls are the answer oracle.
type replayResult struct {
	applyUS, affectedUS, reverifyUS []float64
	qmatchMS                        []float64
	dparS                           float64
}

// replayOrder merges the two tenants' accepted batches into an order the
// coordinator could have applied them in. Only node ids depend on the
// order across tenants (their edits touch disjoint halves), and node
// counts give it: a batch that adds a node precedes every batch that saw
// its node count, and a tenant's own batches keep their order.
func replayOrder(logs []*opLog) []sentBatch {
	var all []sentBatch
	for _, l := range logs {
		all = append(all, l.batches...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.nodesAfter != b.nodesAfter {
			return a.nodesAfter < b.nodesAfter
		}
		if a.addsNode != b.addsNode {
			return a.addsNode
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})
	return all
}

func toMutations(specs []server.UpdateSpec) ([]graph.Mutation, error) {
	muts := make([]graph.Mutation, len(specs))
	for i, s := range specs {
		m := graph.Mutation{From: graph.NodeID(s.From), To: graph.NodeID(s.To), Label: s.Label}
		switch s.Op {
		case "addNode":
			m.Op = graph.MutAddNode
		case "addEdge":
			m.Op = graph.MutAddEdge
		case "removeEdge":
			m.Op = graph.MutRemoveEdge
		case "removeNode":
			m.Op = graph.MutRemoveNode
		default:
			return nil, fmt.Errorf("unknown update op %q", s.Op)
		}
		muts[i] = m
	}
	return muts, nil
}

// verify replays every accepted batch single-process and checks the
// front end's answers against it: every match-read answer against
// match.QMatch, and every tenant's accumulated watch view plus a final
// front-end match of each watched pattern against dynamic.Matcher. It
// returns the mismatches found (empty when the run was correct).
func verify(h *harness, in *inputs, rec *recorder) (*replayResult, []string, error) {
	var bad []string
	res := &replayResult{}
	vg := graph.NewVersioned(in.g.Clone())

	watched := map[int]*dynamic.Matcher{}
	watchedQ := map[int]*core.Pattern{}
	if h.w.watches != nil {
		for _, idx := range h.w.watches {
			for _, pi := range idx {
				if watched[pi] != nil {
					continue
				}
				q, err := core.Parse(watchPatterns[pi])
				if err != nil {
					return nil, nil, err
				}
				m, err := dynamic.NewMatcher(vg.Graph(), q)
				if err != nil {
					return nil, nil, err
				}
				watched[pi], watchedQ[pi] = m, q
			}
		}
	}
	keys := make([]int, 0, len(watched))
	for k := range watched {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	var logs []*opLog
	for _, t := range h.tenants {
		logs = append(logs, &t.log)
	}
	for _, b := range replayOrder(logs) {
		muts, err := toMutations(b.specs)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		old, touched, err := vg.Apply(muts)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		res.applyUS = append(res.applyUS, us(d))
		rec.maybeSpan("graph.apply", start, d)
		g := vg.Graph()
		for _, k := range keys {
			m := watched[k]
			start := time.Now()
			affected := dynamic.AffectedWithin(old, g, touched, m.Hops())
			d := time.Since(start)
			res.affectedUS = append(res.affectedUS, us(d))
			rec.maybeSpan("dynamic.affected", start, d)
			start = time.Now()
			if _, err := m.ApplyScoped(g, affected); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
			d = time.Since(start)
			res.reverifyUS = append(res.reverifyUS, us(d))
			rec.maybeSpan("dynamic.reverify", start, d)
		}
	}

	// Single-process QMatch on the final graph: the oracle of every
	// checked match, and the engine's time alone (three runs of each
	// pattern the workload matches or watches).
	g := vg.Graph()
	patterns := make([]*core.Pattern, 0, len(in.pool)+len(keys))
	for _, p := range in.pool {
		patterns = append(patterns, p.q)
	}
	for _, k := range keys {
		patterns = append(patterns, watchedQ[k])
	}
	oracle := make([]uint64, len(in.pool))
	sizes := make([]int, len(in.pool))
	for i, q := range patterns {
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := match.QMatch(g, q, nil)
			d := time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("oracle QMatch: %w", err)
			}
			res.qmatchMS = append(res.qmatchMS, ms(d))
			rec.maybeSpan("match.qmatch", start, d)
			if i < len(oracle) {
				oracle[i], sizes[i] = hashIDs(toInt64(r.Matches)), len(r.Matches)
			}
		}
	}
	if h.w.staticAnswers {
		for _, t := range h.tenants {
			for _, a := range t.log.answers {
				if a.hash != oracle[a.pattern] || a.total != sizes[a.pattern] {
					bad = append(bad, fmt.Sprintf("%s: match of pattern %d returned %d answers, single-process QMatch %d (or other ids)",
						t.name, a.pattern, a.total, sizes[a.pattern]))
				}
			}
		}
	}

	// Watches: the accumulated view and a final front-end match must both
	// equal the replayed matcher.
	for _, t := range h.tenants {
		for name, v := range t.watch {
			want := toInt64(watched[v.pattern].Answers())
			if got := sortedKeys(v.ans); !equalIDs(got, want) {
				bad = append(bad, fmt.Sprintf("%s/%s: accumulated view has %d answers, replay %d", t.name, name, len(got), len(want)))
			}
		}
	}
	for _, k := range keys {
		resp, err := h.tenants[0].c.Match(watchPatterns[k], nil)
		if err != nil {
			return nil, nil, fmt.Errorf("final match: %w", err)
		}
		want := toInt64(watched[k].Answers())
		if !equalIDs(sortedCopy(resp.Matches), want) {
			bad = append(bad, fmt.Sprintf("final front-end match of watch pattern %d: %d answers, replay %d", k, len(resp.Matches), len(want)))
		}
	}

	start := time.Now()
	if _, err := partition.DPar(in.g, partition.Config{Workers: h.w.workers, D: h.w.d}); err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	d := time.Since(start)
	res.dparS = d.Seconds()
	rec.maybeSpan("partition.dpar", start, d)
	return res, bad, nil
}

func (r *recorder) maybeSpan(name string, start time.Time, d time.Duration) {
	if r != nil {
		r.span(name, start, d)
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func toInt64(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedCopy(s []int64) []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
