package netrun

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mdst/internal/graph"
)

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

// TestUnknownControlRequestDropsConnection: a request that does not
// decode as a probeRequest closes that connection without disturbing
// the listener.
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
	// A gob string is no probeRequest: the server's decode fails and it
	// drops the connection instead of answering.
	if err := probe.enc.Encode("metrics, please"); err != nil {
		t.Fatal(err)
	}
	var r probeReply
	if err := probe.dec.Decode(&r); err == nil {
		t.Fatal("server answered a request that is not a probeRequest")
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
