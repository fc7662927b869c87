package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// noopRegistrar satisfies tenant.Registrar for a benchmark manager that
// registers no watches.
type noopRegistrar struct{}

func (noopRegistrar) Watch(string, *core.Pattern) ([]graph.NodeID, error) { return nil, nil }
func (noopRegistrar) Unwatch(string) error                                { return nil }

// BenchmarkClusterMatch compares embedded coordinator/worker clusters of
// 1, 2 and 4 workers against single-process match on a generated social
// graph:
//
//	go test -run '^$' -bench BenchmarkClusterMatch .
//
// On a single-CPU machine the wall-clock speedup is modest; the point is
// the coordination overhead (cluster vs single), not parallel
// scalability — internal/bench's SimWork experiments show that
// machine-independently. The end-to-end ledger is e2ebench.
func BenchmarkClusterMatch(b *testing.B) {
	const graphSize = 2000
	g := gen.Social(gen.DefaultSocial(graphSize, 42))
	pattern := "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n"
	q, err := core.Parse(pattern)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.QMatch(g, q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ts := cluster.InProcessN(workers, server.Config{})
			defer cluster.CloseAll(ts)
			c, err := cluster.New(g, ts, cluster.Config{D: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Match(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Concurrent-clients axis: 8 tenants issue fenced read-only matches
	// against a workers=2 cluster at replication k=1..3. Every transport
	// carries a simulated 8ms round trip, serialized per copy the way one
	// wire session is, so throughput is bound by overlapping read streams
	// — exactly what replica-read routing buys — rather than by this
	// machine's core count. QPS must scale with k.
	const tenants = 8
	const rtt = 8 * time.Millisecond
	cg := gen.Social(gen.DefaultSocial(400, 42))
	cq, err := core.Parse("qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		k := k
		b.Run(fmt.Sprintf("tenants=%d/replicas=%d", tenants, k), func(b *testing.B) {
			prim := make([]cluster.Transport, 2)
			for i := range prim {
				prim[i] = &latencyTransport{inner: cluster.InProcess(server.Config{}), d: rtt}
			}
			pool := &latencyPool{cfg: server.Config{}, d: rtt, next: len(prim)}
			c, err := cluster.New(cg, prim, cluster.Config{D: 2, Replicas: k, Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// One write sets the read-your-writes fence every tenant's
			// matches carry, as the front end does after an update.
			res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 1, To: 2, Label: "follow"}})
			if err != nil {
				b.Fatal(err)
			}
			opts := &cluster.MatchOptions{MinVersion: res.Version}
			b.SetParallelism(tenants) // tenants × GOMAXPROCS goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.MatchWith(cq, opts); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}

	// Admission-control overhead: the k=3 workload again, with every op
	// paying the front end's per-tenant QoS work — Admit (token bucket),
	// fence lookup, latency Observe into the tenant's histogram — against
	// limits high enough that nothing throttles. Next to the unlimited
	// replicas=3 case it shows that admission control stays in the noise
	// (the bar is ≤5%) next to an 8ms wire round trip.
	b.Run(fmt.Sprintf("tenants=%d/replicas=3/limited", tenants), func(b *testing.B) {
		prim := make([]cluster.Transport, 2)
		for i := range prim {
			prim[i] = &latencyTransport{inner: cluster.InProcess(server.Config{}), d: rtt}
		}
		pool := &latencyPool{cfg: server.Config{}, d: rtt, next: len(prim)}
		c, err := cluster.New(cg, prim, cluster.Config{D: 2, Replicas: 3, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 1, To: 2, Label: "follow"}})
		if err != nil {
			b.Fatal(err)
		}
		tm := tenant.NewManager(tenant.Config{
			RateQPS: 1e9, RateBurst: 1 << 30,
			AffectedPerSec: 1e9, AffectedBurst: 1 << 30,
			Metrics: obs.NewRegistry(),
		}, noopRegistrar{})
		b.SetParallelism(tenants)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			name, err := tm.Attach("")
			if err != nil {
				b.Error(err)
				return
			}
			tm.NoteWrite(name, res.Version)
			for pb.Next() {
				if err := tm.Admit(name, "match"); err != nil {
					b.Error(err)
					return
				}
				opts := &cluster.MatchOptions{MinVersion: tm.NoteRead(name)}
				start := time.Now()
				if _, err := c.MatchWith(cq, opts); err != nil {
					b.Error(err)
					return
				}
				tm.Observe(name, "match", start)
			}
		})
	})
}

// latencyTransport models one wire session to a remote worker: requests
// pay a fixed round trip and are serialized per session (a connection is
// an in-order stream), so k copies of a fragment can overlap k reads.
// It deliberately implements neither Endpointer nor ReadTracker — the
// read router then scores copies by their own in-flight counts, the
// dial-pool-without-accounting deployment shape.
type latencyTransport struct {
	mu    sync.Mutex
	inner cluster.Transport
	d     time.Duration
}

func (t *latencyTransport) Do(req *server.Request) (*server.Response, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	time.Sleep(t.d)
	return t.inner.Do(req)
}

func (t *latencyTransport) Close() error { return t.inner.Close() }

// latencyPool hands replica sessions out as latency transports on
// distinct synthetic endpoints.
type latencyPool struct {
	mu   sync.Mutex
	cfg  server.Config
	d    time.Duration
	next int
}

func (p *latencyPool) Get(weight int, avoid map[int]bool) (cluster.Transport, int, error) {
	p.mu.Lock()
	ep := p.next
	p.next++
	p.mu.Unlock()
	return &latencyTransport{inner: cluster.InProcess(p.cfg), d: p.d}, ep, nil
}
