package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// randGraph builds a small random labeled graph.
func randGraph(r *rand.Rand, maxN int) *graph.Graph {
	n := 3 + r.Intn(maxN-2)
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"R", "S"}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabels[r.Intn(len(nodeLabels))])
	}
	m := r.Intn(3 * n)
	for i := 0; i < m; i++ {
		from := graph.NodeID(r.Intn(n))
		to := graph.NodeID(r.Intn(n))
		if from == to {
			continue
		}
		g.AddEdge(from, to, edgeLabels[r.Intn(len(edgeLabels))])
	}
	g.Finalize()
	return g
}

// randQuantifier draws a quantifier with a bias toward the interesting
// kinds.
func randQuantifier(r *rand.Rand) core.Quantifier {
	switch r.Intn(13) {
	case 0, 1, 2, 3:
		return core.Exists()
	case 4, 5:
		return core.Count(core.GE, 1+r.Intn(3))
	case 6:
		return core.Ratio(core.GE, 1+r.Intn(10000))
	case 7:
		return core.Universal()
	case 8:
		return core.Count(core.EQ, 1+r.Intn(2))
	case 9:
		return core.Count(core.LE, 1+r.Intn(3))
	case 10:
		return core.Count(core.NE, r.Intn(3))
	case 11:
		return core.Ratio(core.LE, 1+r.Intn(10000))
	default:
		return core.Negated()
	}
}

// randPattern builds a random tree-shaped QGP of 2..5 nodes rooted at the
// focus (the shape the paper's restriction targets), retrying until it
// validates.
func randPattern(r *rand.Rand) *core.Pattern {
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"R", "S"}
	for {
		p := core.NewPattern()
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			p.AddNode(fmt.Sprintf("u%d", i), nodeLabels[r.Intn(len(nodeLabels))])
		}
		for i := 1; i < n; i++ {
			parent := fmt.Sprintf("u%d", r.Intn(i))
			child := fmt.Sprintf("u%d", i)
			q := randQuantifier(r)
			if r.Intn(4) == 0 && !q.IsNegation() {
				// Occasionally reverse the edge (child points at parent).
				p.AddEdge(child, parent, edgeLabels[r.Intn(len(edgeLabels))], q)
			} else {
				p.AddEdge(parent, child, edgeLabels[r.Intn(len(edgeLabels))], q)
			}
		}
		if p.Validate() != nil {
			continue
		}
		if pi, _ := p.Pi(); !pi.Connected() {
			continue
		}
		return p
	}
}

// TestDifferentialRandom cross-checks QMatch, QMatchN and Enum against the
// naive Reference evaluator on seeded random instances. This is the
// load-bearing correctness test for the core contribution.
func TestDifferentialRandom(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 10)
		q := randPattern(r)

		want, err := Reference(g, q)
		if err != nil {
			t.Fatalf("seed %d: Reference: %v\npattern:\n%s", seed, err, q)
		}
		for name, algo := range algorithms {
			res, err := algo(g, q, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v\npattern:\n%s", seed, name, err, q)
			}
			got := res.Matches
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				var buf string
				gw := &stringWriter{&buf}
				g.WriteTo(gw)
				t.Fatalf("seed %d: %s = %v, want %v\npattern:\n%s\ngraph:\n%s",
					seed, name, got, want, q, buf)
			}
		}
	}
}

type stringWriter struct{ s *string }

func (w *stringWriter) Write(p []byte) (int, error) {
	*w.s += string(p)
	return len(p), nil
}

// TestDifferentialPositiveLarger drives the three engines (not Reference,
// which is too slow) against each other on somewhat larger instances.
func TestDifferentialPositiveLarger(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 20
	}
	for seed := 1000; seed < 1000+iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 60)
		q := randPattern(r)

		var want []graph.NodeID
		first := true
		for name, algo := range algorithms {
			res, err := algo(g, q, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if first {
				want = res.Matches
				first = false
				continue
			}
			if len(res.Matches) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(res.Matches, want) {
				t.Fatalf("seed %d: %s = %v, others = %v\npattern:\n%s",
					seed, name, res.Matches, want, q)
			}
		}
	}
}

// TestDifferentialLabelOnlyCandidates exercises the engine without the
// simulation prefilter (label-only candidate sets) against Reference, so
// both candidate strategies stay verified.
func TestDifferentialLabelOnlyCandidates(t *testing.T) {
	for seed := 3000; seed < 3150; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 10)
		q := randPattern(r)
		want, err := Reference(g, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval(g, q, nil, evalConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Matches) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(res.Matches, want) {
			t.Fatalf("seed %d: label-only eval = %v, want %v\npattern:\n%s",
				seed, res.Matches, want, q)
		}
	}
}

// TestQMatchNeverMoreVerificationsThanEnum checks the paper's efficiency
// claim on random instances: QMatch's pruning and early acceptance never
// inspect more complete isomorphisms than enumerate-then-verify.
func TestQMatchNeverMoreVerificationsThanEnum(t *testing.T) {
	for seed := 2000; seed < 2100; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 40)
		q := randPattern(r)
		rq, err := QMatch(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Enum(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rq.Metrics.Verifications > re.Metrics.Verifications {
			t.Errorf("seed %d: QMatch verified %d > Enum %d\npattern:\n%s",
				seed, rq.Metrics.Verifications, re.Metrics.Verifications, q)
		}
	}
}

// quantifierVariants returns copies of p with every quantified
// (non-existential, non-negated) edge set to each of a numeric ≥, a
// numeric =, a numeric ≤ and a ratio ≤ quantifier, plus p itself (whose
// generated quantifiers are ratio ≥).
func quantifierVariants(p *core.Pattern) []*core.Pattern {
	out := []*core.Pattern{p}
	for _, q := range []core.Quantifier{core.Count(core.GE, 2), core.Count(core.EQ, 1), core.Count(core.LE, 2), core.Ratio(core.LE, 5000)} {
		v := *p
		v.Edges = append([]core.PEdge(nil), p.Edges...)
		for i := range v.Edges {
			if !v.Edges[i].Q.IsExistential() && !v.Edges[i].IsNegated() {
				v.Edges[i].Q = q
			}
		}
		out = append(out, &v)
	}
	return out
}

// TestFastPathDifferential pins the focus-scoped fast path — label-tested
// candidates, no simulation, no acceptance filter — to the simulation
// path: QMatch under a small FocusRestrict must equal unrestricted QMatch
// intersected with the restriction. It runs on a versioned graph after
// batches that add nodes, remove nodes and remove edges, so the label
// rows it tests against include tombstoned and batch-created nodes, and
// the restriction arrives unsorted with duplicates. The fast path's
// profile must report each node's label-row length as both its candidate
// and its accepted count.
func TestFastPathDifferential(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(600, 7))
	var pats []*core.Pattern
	for neg := 0; neg <= 1; neg++ {
		for nodes := 2; nodes <= 3; nodes++ {
			for _, p := range gen.Patterns(g, gen.PatternConfig{Nodes: nodes, Edges: nodes, RatioBP: 3000, NegEdges: neg, Seed: 11}, 3) {
				pats = append(pats, quantifierVariants(p)...)
			}
		}
	}
	vg := graph.NewVersioned(g.Clone())
	r := rand.New(rand.NewSource(5))
	var named []graph.NodeID // the last batch's created and removed nodes
	for round := 0; round < 4; round++ {
		if round > 0 {
			cur := vg.Graph()
			persons := len(cur.NodesByLabelName("person"))
			var batch []graph.Mutation
			named = named[:0]
			for i := 0; i < 4; i++ {
				batch = append(batch, graph.Mutation{Op: graph.MutAddNode, Label: "person"})
				fresh := graph.NodeID(cur.NumNodes() + i)
				named = append(named, fresh)
				for j := 0; j < 5; j++ {
					other := graph.NodeID(r.Intn(persons))
					batch = append(batch,
						graph.Mutation{Op: graph.MutAddEdge, From: fresh, To: other, Label: "follow"},
						graph.Mutation{Op: graph.MutAddEdge, From: other, To: fresh, Label: "follow"})
				}
			}
			for i := 0; i < 3; i++ {
				v := graph.NodeID(r.Intn(persons))
				named = append(named, v)
				batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, From: v})
			}
			for i := 0; i < 20; i++ {
				v := graph.NodeID(r.Intn(persons))
				if out := cur.Out(v); len(out) > 0 {
					e := out[r.Intn(len(out))]
					batch = append(batch, graph.Mutation{Op: graph.MutRemoveEdge, From: v, To: e.To, Label: cur.LabelName(e.Label)})
				}
			}
			if _, _, err := vg.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		cur := vg.Graph()
		n := cur.NumNodes()
		for pi, q := range pats {
			restrict := append([]graph.NodeID(nil), named...)
			for len(restrict) < 64 {
				restrict = append(restrict, graph.NodeID(r.Intn(n)))
			}
			restrict = append(restrict, restrict[0])
			r.Shuffle(len(restrict), func(i, j int) { restrict[i], restrict[j] = restrict[j], restrict[i] })
			in := make(map[graph.NodeID]bool, len(restrict))
			for _, v := range restrict {
				in[v] = true
			}

			full, err := QMatch(cur, q, nil)
			if err != nil {
				t.Fatalf("round %d pattern %d: %v", round, pi, err)
			}
			var want []graph.NodeID
			for _, v := range full.Matches {
				if in[v] {
					want = append(want, v)
				}
			}
			res, err := QMatch(cur, q, &Options{FocusRestrict: restrict, CollectProfile: true})
			if err != nil {
				t.Fatalf("round %d pattern %d: %v", round, pi, err)
			}
			if !reflect.DeepEqual(res.Matches, want) && len(res.Matches)+len(want) > 0 {
				t.Fatalf("round %d pattern %d: fast path = %v, unrestricted ∩ restriction = %v\npattern:\n%s",
					round, pi, res.Matches, want, q)
			}
			if !res.Profile.Patterns[0].FastPath {
				t.Fatalf("round %d pattern %d: a %d-node restriction on %d nodes did not take the fast path", round, pi, len(in), n)
			}
			for _, pp := range res.Profile.Patterns {
				for _, np := range pp.Nodes {
					ui, _ := q.NodeIndex(np.Name)
					row := len(cur.NodesByLabelName(q.Nodes[ui].Label))
					if np.Candidates != row || np.Accepted != row {
						t.Fatalf("round %d pattern %d %s node %s: candidates %d accepted %d, want label row %d",
							round, pi, pp.Pattern, np.Name, np.Candidates, np.Accepted, row)
					}
				}
			}
		}
	}
}
