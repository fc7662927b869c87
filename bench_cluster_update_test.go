package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/ha"
	"repro/internal/obs"
	"repro/internal/server"
)

// BenchmarkClusterUpdate measures update-batch routing latency: a
// cluster with a standing watch absorbs small mutation batches, against
// the single-process dynamic.Matcher baseline doing the same
// maintenance in memory. The gap is the coordination tax per batch —
// affected-region planning, per-worker wire round trips, delta merging
// — which the HA work must not regress on the k=1 hot path:
//
//	go test -run '^$' -bench BenchmarkClusterUpdate .
func BenchmarkClusterUpdate(b *testing.B) {
	const graphSize = 2000
	g := gen.Social(gen.DefaultSocial(graphSize, 42))
	pattern := "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"
	q, err := core.Parse(pattern)
	if err != nil {
		b.Fatal(err)
	}
	// Iteration 2k adds a pseudo-random edge and iteration 2k+1 removes
	// that same edge, so the graph stays bounded across arbitrarily
	// many iterations.
	batchFor := func(i int) []server.UpdateSpec {
		k := i / 2
		from := int64((k*7919 + 13) % graphSize)
		to := int64((k*104729 + 31) % graphSize)
		if from == to {
			to = (to + 1) % graphSize
		}
		op := "addEdge"
		if i%2 == 1 {
			op = "removeEdge"
		}
		return []server.UpdateSpec{{Op: op, From: from, To: to, Label: "follow"}}
	}

	b.Run("single", func(b *testing.B) {
		m, err := dynamic.NewMatcher(g, q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ups, err := server.ToUpdates(batchFor(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Apply(ups); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, workers := range []int{2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ts := cluster.InProcessN(workers, server.Config{})
			c, err := cluster.New(g, ts, cluster.Config{D: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Watch("w", q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Update(batchFor(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Same fan-out with the metrics registry enabled: the delta against
	// workers=2 is the full instrumentation cost per batch (per-worker
	// latency histograms, routed/skipped counters, batch/affected/fanout
	// size observations) and must stay within noise of the bare number.
	b.Run("workers=2,metrics", func(b *testing.B) {
		ts := cluster.InProcessN(2, server.Config{})
		c, err := cluster.New(g, ts, cluster.Config{D: 2, Metrics: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Watch("w", q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Update(batchFor(i)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// k=2 replication: the combined batch is mirrored to each fragment's
	// warm replica after the primary acks; mirrors of different fragments
	// (and replicas of one fragment) run concurrently, so the replicated
	// number tracks the k=1 one instead of doubling it.
	b.Run("workers=2,replicas=2", func(b *testing.B) {
		pool := ha.NewSpawnPool(4, server.Config{})
		ts, err := pool.Primaries(2)
		if err != nil {
			b.Fatal(err)
		}
		c, err := cluster.New(g, ts, cluster.Config{D: 2, Replicas: 2, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Watch("w", q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Update(batchFor(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
