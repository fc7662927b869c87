package dynamic

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// scaleWorkload is BenchmarkClusterUpdate's single-process workload at n
// persons: a gen.Social graph, the 1-hop pattern "at least 3 followed
// persons", and a batch sequence where batch 2k adds a pseudo-random
// follow edge and batch 2k+1 removes it again, so the graph stays bounded
// over any number of batches.
func scaleWorkload(tb testing.TB, n int) (*graph.Graph, *core.Pattern, func(i int) []Update) {
	tb.Helper()
	g := gen.Social(gen.DefaultSocial(n, 42))
	q, err := core.Parse("qgp\nn xo person *\nn z person\ne xo z follow >=3\n")
	if err != nil {
		tb.Fatal(err)
	}
	batchFor := func(i int) []Update {
		k := i / 2
		from := int32((k*7919 + 13) % n)
		to := int32((k*104729 + 31) % n)
		if from == to {
			to = (to + 1) % int32(n)
		}
		if i%2 == 1 {
			return []Update{store.RemoveEdge(from, to, "follow")}
		}
		return []Update{store.AddEdge(from, to, "follow")}
	}
	return g, q, batchFor
}

// TestUpdateCostIndependentOfGraphSize is the |G|-independence gate for
// incremental maintenance: a 1-edge batch must cost about the same at
// 100k persons as at 2k. It compares bytes allocated per Apply rather
// than wall time, so the check is deterministic on a loaded machine; a
// |V|-sized scratch array or candidate bitset anywhere on the re-verify
// path shows up as a 50× growth.
func TestUpdateCostIndependentOfGraphSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-person graph")
	}
	const batches = 64
	perApply := func(n int) uint64 {
		g, q, batchFor := scaleWorkload(t, n)
		m, err := NewMatcher(g, q)
		if err != nil {
			t.Fatal(err)
		}
		// The first Apply clones the graph into the matcher's private
		// versioned core; that one-time O(|G|) cost is not per batch.
		for i := 0; i < 4; i++ {
			if _, err := m.Apply(batchFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 4; i < 4+batches; i++ {
			if _, err := m.Apply(batchFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / batches
	}
	small, large := perApply(2000), perApply(100000)
	t.Logf("bytes per 1-edge Apply: n=2k %d, n=100k %d (%.2f×)", small, large, float64(large)/float64(small))
	if large > 2*small {
		t.Fatalf("bytes per 1-edge Apply grew from %d at n=2k to %d at n=100k (%.1f×, limit 2×): the update path pays for |V|",
			small, large, float64(large)/float64(small))
	}
}

// BenchmarkMatcherApplySweep measures single-process Matcher.Apply of a
// 1-edge batch against graph size, the update-cost-versus-|G| curve:
//
//	go test -run '^$' -bench BenchmarkMatcherApplySweep -benchmem ./internal/dynamic
func BenchmarkMatcherApplySweep(b *testing.B) {
	for _, n := range []int{2000, 20000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, q, batchFor := scaleWorkload(b, n)
			m, err := NewMatcher(g, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Apply(batchFor(0)); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Apply(batchFor(1)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Apply(batchFor(i + 2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
