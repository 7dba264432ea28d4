package netrun

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mdst/internal/graph"
)

// TestMetricsOverControlChannel exercises the metrics request/reply pair
// end to end: the two request kinds interleave on one ProbeConn, the
// traffic counters are live, and the per-kind breakdown sums to at
// most the total (every send increments both).
func TestMetricsOverControlChannel(t *testing.T) {
	g := graph.Wheel(6)
	c := buildCore(g)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	probe, err := DialProbe(c.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()

	if _, err := probe.Sample(); err != nil {
		t.Fatal("probe before metrics:", err)
	}
	time.Sleep(50 * time.Millisecond) // let some gossip flow
	ms, err := probe.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms.SentTotal <= 0 {
		t.Fatalf("no traffic observed (SentTotal=%d)", ms.SentTotal)
	}
	if len(ms.SentByKind) == 0 {
		t.Fatal("SentByKind empty")
	}
	var sum int64
	for kind, v := range ms.SentByKind {
		if v <= 0 {
			t.Fatalf("non-positive count for kind %q: %d", kind, v)
		}
		sum += v
	}
	if sum > ms.SentTotal {
		t.Fatalf("per-kind sum %d exceeds SentTotal %d", sum, ms.SentTotal)
	}
	// The pair interleaves with the probe pair on the same connection.
	if _, err := probe.Sample(); err != nil {
		t.Fatal("probe after metrics:", err)
	}
	later, err := probe.Metrics()
	if err != nil {
		t.Fatal("second metrics fetch:", err)
	}
	if later.SentTotal < ms.SentTotal {
		t.Fatalf("SentTotal went backwards: %d then %d", ms.SentTotal, later.SentTotal)
	}
}

// Satellite regression: a control client that disconnects mid-request —
// half a gob frame, then gone — must be shed by the server without
// leaking its per-connection goroutine and without stalling
// Cluster.Stop. Before the per-connection registry this hung Stop
// (wg.Wait waited on a handler blocked in Decode on a dead conn).
func TestControlClientDisconnectMidRequest(t *testing.T) {
	g := graph.Wheel(6)
	c := buildCore(g)
	before := runtime.NumGoroutine()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// Client 1: connect, write half a gob stream (a type descriptor with
	// no value), vanish. The server handler must not spin or crash.
	raw, err := net.Dial("tcp", c.ControlAddr())
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	raw.Write([]byte{0x07, 0xff, 0x81, 0x03}) // truncated gob preamble
	raw.Close()

	// Client 2: a full handshake followed by an abrupt disconnect while
	// the server may still be mid-reply.
	probe, err := DialProbe(c.ControlAddr())
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	if _, err := probe.Sample(); err != nil {
		probe.Close()
		c.Stop()
		t.Fatal(err)
	}
	probe.Close()

	// The cluster must keep serving fresh clients after both departures.
	probe2, err := DialProbe(c.ControlAddr())
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	if _, err := probe2.Sample(); err != nil {
		probe2.Close()
		c.Stop()
		t.Fatalf("control channel dead after client disconnects: %v", err)
	}
	if _, err := probe2.Metrics(); err != nil {
		probe2.Close()
		c.Stop()
		t.Fatalf("metrics pair dead after client disconnects: %v", err)
	}
	probe2.Close()

	// Stop must return promptly (it wg.Waits on every handler): run it
	// under a watchdog so a leaked handler fails the test instead of
	// hanging the suite.
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Cluster.Stop stalled by a disconnected control client")
	}

	// Every goroutine the run launched — node loops, edge workers, and
	// all three connection handlers — must be gone.
	ok := false
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if runtime.NumGoroutine() <= before {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("goroutines leaked by disconnected control clients: %d before, %d after",
			before, runtime.NumGoroutine())
	}
}

// TestUnknownControlRequestDropsConnection: a registered-but-unexpected
// request type closes that connection without disturbing the listener.
func TestUnknownControlRequestDropsConnection(t *testing.T) {
	g := graph.Ring(4)
	c := buildCore(g)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	probe, err := DialProbe(c.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	// Speak a concrete (non-interface) probeRequest — the pre-extension
	// client encoding. The server decodes into an interface and cannot
	// match it, so it drops the connection.
	if err := probe.enc.Encode(probeRequest{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	var r probeReply
	if err := probe.dec.Decode(&r); err == nil {
		t.Fatal("server answered a non-interface-encoded request")
	}
	probe.Close()

	// The listener survives: fresh clients still get answers.
	probe2, err := DialProbe(c.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe2.Close()
	if _, err := probe2.Sample(); err != nil {
		t.Fatalf("listener hurt by dropped connection: %v", err)
	}
}
