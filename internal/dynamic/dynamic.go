// Package dynamic maintains quantified-matching state under graph updates,
// implementing the remark of §5.2: "When G is updated, coordinator Sc
// assigns the changes to each fragment. Each worker then applies
// incremental distance querying to maintain Nd(v) of all affected v."
//
// The locality argument is the one behind Lemma 9(1): whether a node vx
// answers a pattern Q depends only on the subgraph induced by Nd(vx),
// where d = parallel.RequiredHops(Q). An update therefore can only change
// the membership of focus nodes within d undirected hops of a touched
// node — measured in the old graph for deletions and in the new graph for
// insertions. Matcher re-verifies exactly that affected set and reuses
// every other cached answer; Repartition reloads exactly the affected
// owners' neighborhoods.
//
// Updates reuse the mutation vocabulary of internal/store, so a store's
// journaled history is directly replayable into a Matcher.
package dynamic

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/store"
)

// Update is one graph change; it is the store's mutation type.
type Update = store.Mutation

type edgeKey struct {
	from, to graph.NodeID
	label    string
}

// Apply applies a batch of updates to g, in order, and returns the new
// finalized graph plus the sorted set of touched nodes: endpoints of
// inserted or removed edges, newly added nodes, and isolated nodes. Node
// ids are stable: OpRemoveNode isolates the node but keeps its slot (the
// store's tombstone semantics), so answer sets over old and new graphs
// are directly comparable.
//
// Apply is the rebuild-the-world path: it re-materializes the full
// edge-set model and finalizes a whole new graph, costing O(|G|) per
// batch. The production layers run on ApplyVersioned instead; Apply is
// retained as the differential oracle the versioned core is verified
// against (and for one-shot callers that want a fresh graph value).
func Apply(g *graph.Graph, ups []Update) (*graph.Graph, []graph.NodeID, error) {
	// Build the edge-set model of g, then replay the batch in order.
	labels := make([]string, g.NumNodes())
	edges := make(map[edgeKey]bool, g.NumEdges())
	for vi := 0; vi < g.NumNodes(); vi++ {
		v := graph.NodeID(vi)
		labels[vi] = g.NodeLabelName(v)
		for _, e := range g.Out(v) {
			edges[edgeKey{v, e.To, g.LabelName(e.Label)}] = true
		}
	}

	touched := make(map[graph.NodeID]bool)
	for _, u := range ups {
		switch u.Op {
		case store.OpAddNode:
			labels = append(labels, u.Label)
			touched[graph.NodeID(len(labels)-1)] = true
		case store.OpAddEdge, store.OpRemoveEdge:
			if u.From < 0 || int(u.From) >= len(labels) || u.To < 0 || int(u.To) >= len(labels) {
				return nil, nil, fmt.Errorf("dynamic: %v references a node outside [0, %d)", u, len(labels))
			}
			k := edgeKey{graph.NodeID(u.From), graph.NodeID(u.To), u.Label}
			if u.Op == store.OpAddEdge {
				edges[k] = true
			} else {
				delete(edges, k)
			}
			touched[k.from] = true
			touched[k.to] = true
		case store.OpRemoveNode:
			if u.From < 0 || int(u.From) >= len(labels) {
				return nil, nil, fmt.Errorf("dynamic: %v references a node outside [0, %d)", u, len(labels))
			}
			v := graph.NodeID(u.From)
			for k := range edges {
				if k.from == v || k.to == v {
					delete(edges, k)
					// Former neighbors are touched too: their adjacency
					// changed even though no update names them.
					touched[k.from] = true
					touched[k.to] = true
				}
			}
			touched[v] = true
		default:
			return nil, nil, fmt.Errorf("dynamic: unknown update op %d", u.Op)
		}
	}

	ng := graph.New(len(labels))
	for _, l := range labels {
		ng.AddNode(l)
	}
	keys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.label < b.label
	})
	for _, k := range keys {
		ng.AddEdge(k.from, k.to, k.label)
	}
	ng.Finalize()

	out := make([]graph.NodeID, 0, len(touched))
	for v := range touched {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return ng, out, nil
}

// ApplyVersioned applies a batch to the versioned graph core in place:
// the same update semantics (and touched-set contract) as Apply, at
// cost proportional to |batch| + degree of the touched nodes instead of
// |G|. It returns the pre-batch old view — the "deletions are measured
// in the old graph" half of AffectedWithin — plus the sorted touched
// set. Validation happens up front, so an error leaves the graph at its
// prior version, untouched.
func ApplyVersioned(vg *graph.Versioned, ups []Update) (*graph.OldView, []graph.NodeID, error) {
	muts := make([]graph.Mutation, len(ups))
	for i, u := range ups {
		var op graph.MutationOp
		switch u.Op {
		case store.OpAddNode:
			op = graph.MutAddNode
		case store.OpAddEdge:
			op = graph.MutAddEdge
		case store.OpRemoveEdge:
			op = graph.MutRemoveEdge
		case store.OpRemoveNode:
			op = graph.MutRemoveNode
		default:
			return nil, nil, fmt.Errorf("dynamic: unknown update op %d", u.Op)
		}
		muts[i] = graph.Mutation{Op: op, From: graph.NodeID(u.From), To: graph.NodeID(u.To), Label: u.Label}
	}
	old, touched, err := vg.Apply(muts)
	if err != nil {
		return nil, nil, fmt.Errorf("dynamic: %w", err)
	}
	return old, touched, nil
}

// AffectedWithin returns the sorted set of nodes within hops undirected
// hops of any touched node, unioned over the old and the new graph: a
// deletion affects nodes that could reach the endpoints before the change,
// an insertion affects nodes that can reach them after. The old side is
// a graph.View so a versioned core's cheap pre-batch OldView serves it
// without materializing a second graph.
func AffectedWithin(oldG, newG graph.View, touched []graph.NodeID, hops int) []graph.NodeID {
	// One multi-source BFS per graph version: per-touched-node
	// Neighborhood calls would re-walk (and re-sort) the shared ball once
	// per source, which dominated the coordinator's update cost. The two
	// balls mostly overlap, so the new one contributes only what the old
	// one lacks, and one sort of the union follows the balls, not |V|.
	var inOld, inNew nodeSet
	out := ball(oldG, touched, hops, &inOld)
	for _, v := range ball(newG, touched, hops, &inNew) {
		if !inOld.has(v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// Ball returns the sorted set of nodes within hops undirected steps of
// any source node over g; sources outside the graph are ignored. The
// cluster coordinator uses it to bound fragment materialization upkeep
// to the region around inserted edges.
func Ball(g graph.View, sources []graph.NodeID, hops int) []graph.NodeID {
	var visited nodeSet
	out := ball(g, sources, hops, &visited)
	slices.Sort(out)
	return out
}

// ball returns, in visit order, every node within hops undirected steps
// of a source, via a multi-source BFS over g that records each node in
// visited. Sources outside g are skipped (nodes added after this graph's
// version). The result doubles as the BFS queue: each hop's frontier is
// the range the previous hop appended.
func ball(g graph.View, sources []graph.NodeID, hops int, visited *nodeSet) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(sources))
	for _, v := range sources {
		if int(v) < g.NumNodes() && visited.add(v) {
			out = append(out, v)
		}
	}
	for hop, lo := 0, 0; hop < hops && lo < len(out); hop++ {
		hi := len(out)
		for _, v := range out[lo:hi] {
			for _, e := range g.Out(v) {
				if visited.add(e.To) {
					out = append(out, e.To)
				}
			}
			for _, e := range g.In(v) {
				if visited.add(e.To) {
					out = append(out, e.To)
				}
			}
		}
		lo = hi
	}
	return out
}

// nodeSet is an open-addressed hash set of node ids whose table grows
// with its contents, so a BFS over a small ball costs the ball, not |V|.
// The zero value is an empty set.
type nodeSet struct {
	slots []graph.NodeID // id+1 per occupied slot; 0 marks an empty one
	shift uint           // 32 - log2(len(slots)): Fibonacci hashing keeps the top bits
	n     int
}

// slot returns the slot holding v, or the empty slot where v belongs.
// The table must be non-empty.
func (s *nodeSet) slot(v graph.NodeID) uint32 {
	mask := uint32(len(s.slots) - 1)
	i := uint32(v) * 0x9E3779B9 >> s.shift
	for s.slots[i] != 0 && s.slots[i] != v+1 {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether v is in the set.
func (s *nodeSet) has(v graph.NodeID) bool {
	return s.n > 0 && s.slots[s.slot(v)] != 0
}

// add inserts v and reports whether it was absent.
func (s *nodeSet) add(v graph.NodeID) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	i := s.slot(v)
	if s.slots[i] != 0 {
		return false
	}
	s.slots[i] = v + 1
	s.n++
	return true
}

// grow doubles the table and rehashes. It starts at 256 slots, which
// holds a typical 1-hop ball around a 1-edge batch without rehashing.
func (s *nodeSet) grow() {
	old := s.slots
	size := max(256, 2*len(old))
	s.slots, s.shift, s.n = make([]graph.NodeID, size), uint(32-bits.TrailingZeros(uint(size))), 0
	for _, x := range old {
		if x != 0 {
			s.add(x - 1)
		}
	}
}
