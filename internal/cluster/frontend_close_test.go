package cluster

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// closeCounting wraps a transport and records whether it was closed.
type closeCounting struct {
	Transport
	closed atomic.Bool
}

func (t *closeCounting) Close() error {
	t.closed.Store(true)
	return t.Transport.Close()
}

// TestFrontendClosesWorkersOnDisconnect: the shared cluster outlives
// its connections but never leaks worker sessions. An abrupt client
// disconnect leaves the workers open for the other connections; a second
// gen closes every worker and pool replica of the old cluster; Shutdown
// closes the rest.
func TestFrontendClosesWorkersOnDisconnect(t *testing.T) {
	var mu sync.Mutex
	var made []*closeCounting
	pool := newTestPool(4)
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2, Replicas: 2, Pool: pool},
		NewWorkers: func() ([]Transport, error) {
			ts := make([]Transport, 2)
			mu.Lock()
			for i := range ts {
				cc := &closeCounting{Transport: InProcess(server.Config{})}
				made = append(made, cc)
				ts[i] = cc
			}
			mu.Unlock()
			return ts, nil
		},
		Logf: func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(shutdown)
	// closed reports, per worker NewWorkers made so far, whether it was
	// closed.
	closed := func() []bool {
		mu.Lock()
		defer mu.Unlock()
		out := make([]bool, len(made))
		for i, cc := range made {
			out[i] = cc.closed.Load()
		}
		return out
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.NewClient(conn).Gen("social", 150, 4); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if got := closed(); len(got) != 2 {
		t.Fatalf("expected 2 worker transports, NewWorkers made %d", len(got))
	}
	if got := pool.handedCount(); got != 2 {
		t.Fatalf("expected 2 pool replicas, pool handed out %d", got)
	}

	// Abrupt disconnect: RST instead of FIN, no unwatch/cleanup traffic.
	// Wait for the front end to drop the connection, then check that the
	// cluster survived it.
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fe.mu.Lock()
		open := len(fe.conns)
		fe.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("front end still tracks the connection 5s after an abrupt disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := closed(); !reflect.DeepEqual(got, []bool{false, false}) || pool.openCount() != 2 {
		t.Fatalf("disconnect closed workers %v (pool open: %d), want all open", got, pool.openCount())
	}
	c := dialFrontend(t, ln.Addr().String())
	if _, err := c.Match(testPatterns[0], nil); err != nil {
		t.Fatalf("match after disconnect: %v", err)
	}

	// A second gen replaces the cluster: every old worker and replica is
	// released before the new ones serve.
	if _, _, err := c.Gen("social", 150, 5); err != nil {
		t.Fatalf("second gen: %v", err)
	}
	if got := closed(); !reflect.DeepEqual(got, []bool{true, true, false, false}) {
		t.Fatalf("after second gen workers closed = %v, want the first two only", got)
	}
	if handed, open := pool.handedCount(), pool.openCount(); handed != 4 || open != 2 {
		t.Fatalf("after second gen pool handed %d, open %d; want 4 and 2", handed, open)
	}

	shutdown()
	if got := closed(); !reflect.DeepEqual(got, []bool{true, true, true, true}) || pool.openCount() != 0 {
		t.Fatalf("after shutdown workers closed = %v (pool open: %d), want all closed", got, pool.openCount())
	}
}
