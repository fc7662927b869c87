package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// BenchmarkUpdateThroughput measures sustained incremental-maintenance
// throughput: with a FIXED set of standing watches, how many multi-op
// update batches per second can the system absorb while keeping every
// watch's answer set current? Unlike BenchmarkClusterUpdate (latency of
// one minimal batch), each iteration here is a 8-op batch mixing edge
// churn with periodic node add/remove, so the number reflects steady
// write pressure rather than round-trip overhead. ns/op is the cost of
// one batch; it scales with the versioned core's |batch| + |affected
// region| cost, not with |G|:
//
//	go test -run '^$' -bench BenchmarkUpdateThroughput .
func BenchmarkUpdateThroughput(b *testing.B) {
	const graphSize = 2000
	const opsPerBatch = 8
	g := gen.Social(gen.DefaultSocial(graphSize, 42))
	patterns := []string{
		"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
		"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
	}
	qs := make([]*core.Pattern, len(patterns))
	for i, dsl := range patterns {
		q, err := core.Parse(dsl)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}

	// Batch i: opsPerBatch edge ops walking a pseudo-random schedule;
	// every op at slot 2k+1 removes the edge slot 2k added, so the graph
	// stays bounded over arbitrarily many iterations. Every 16th batch
	// additionally churns one node: add a fresh person, then tombstone it
	// on the following multiple of 16 — node count grows slowly (the
	// tombstone keeps the slot) but edge mass stays flat.
	batchFor := func(i int) []server.UpdateSpec {
		specs := make([]server.UpdateSpec, 0, opsPerBatch+1)
		for j := 0; j < opsPerBatch; j++ {
			s := i*opsPerBatch + j
			k := s / 2
			from := int64((k*7919 + 13) % graphSize)
			to := int64((k*104729 + 31) % graphSize)
			if from == to {
				to = (to + 1) % graphSize
			}
			op := "addEdge"
			if s%2 == 1 {
				op = "removeEdge"
			}
			specs = append(specs, server.UpdateSpec{Op: op, From: from, To: to, Label: "follow"})
		}
		if i%16 == 0 {
			specs = append(specs, server.UpdateSpec{Op: "addNode", Label: "person"})
		} else if i%16 == 8 {
			specs = append(specs, server.UpdateSpec{Op: "removeNode", From: int64((i/16)%graphSize) + 100})
		}
		return specs
	}

	// Single process: one versioned core shared by all standing watches —
	// the batch is applied once and each matcher re-verifies its own
	// affected candidates via ApplyShared.
	b.Run("single", func(b *testing.B) {
		vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(graphSize, 42)))
		ms := make([]*dynamic.Matcher, len(qs))
		for i, q := range qs {
			m, err := dynamic.NewMatcher(vg.Graph(), q)
			if err != nil {
				b.Fatal(err)
			}
			ms[i] = m
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ups, err := server.ToUpdates(batchFor(i))
			if err != nil {
				b.Fatal(err)
			}
			old, touched, err := dynamic.ApplyVersioned(vg, ups)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range ms {
				if _, err := m.ApplyShared(old, vg.Graph(), touched); err != nil {
					b.Fatal(err)
				}
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
			for i, q := range qs {
				if _, err := c.Watch(fmt.Sprintf("w%d", i), q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Update(batchFor(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Instrumentation overhead: the same workers=2 workload with every
	// batch profiled (per-stage timings on the coordinator, the profile
	// command on the workers). The acceptance bar is that it stays within
	// a few percent of the plain workers=2 number — profiling is cheap
	// enough to leave on.
	b.Run("workers=2,profile", func(b *testing.B) {
		ts := cluster.InProcessN(2, server.Config{})
		c, err := cluster.New(g, ts, cluster.Config{D: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		for i, q := range qs {
			if _, err := c.Watch(fmt.Sprintf("w%d", i), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.UpdateProfiled(batchFor(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
