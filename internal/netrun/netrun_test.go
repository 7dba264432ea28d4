package netrun

import (
	"math/rand"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// buildCore wires a cluster of chain-exchange nodes over g.
func buildCore(g *graph.Graph) *Cluster {
	cfg := core.DefaultConfig(g.N())
	return NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewNode(id, nbrs, cfg)
	}, Config{})
}

func coreNodes(c *Cluster) []*core.Node {
	out := make([]*core.Node, c.Graph().N())
	for i := range out {
		out[i] = c.Process(i).(*core.Node)
	}
	return out
}

// TestTCPWheelConverges runs the protocol over real TCP sockets on a
// wheel graph until the configuration is legitimate — the end-to-end
// proof that the implementation works outside the simulator.
func TestTCPWheelConverges(t *testing.T) {
	g := graph.Wheel(8)
	c := buildCore(g)
	ok, err := c.RunUntil(250*time.Millisecond, 40, func() bool {
		return core.CheckLegitimacy(g, coreNodes(c)).OK()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		leg := core.CheckLegitimacy(g, coreNodes(c))
		t.Fatalf("no legitimacy over TCP: %+v", leg)
	}
	tree, err := core.ExtractTree(g, coreNodes(c))
	if err != nil {
		t.Fatal(err)
	}
	// Wheel(8): Δ* = 2 (Hamiltonian path exists), so deg(T) <= 3.
	if tree.MaxDegree() > 3 {
		t.Fatalf("degree %d > 3 over TCP", tree.MaxDegree())
	}
}

// TestTCPCorruptedStart corrupts every node before the first Start.
func TestTCPCorruptedStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomGnp(9, 0.45, rng)
	c := buildCore(g)
	for _, nd := range coreNodes(c) {
		nd.Corrupt(rng, g.N())
	}
	// Generous budget: the race detector slows handlers ~10x and this
	// runs on wall-clock phases, not simulated rounds.
	ok, err := c.RunUntil(250*time.Millisecond, 120, func() bool {
		return core.CheckLegitimacy(g, coreNodes(c)).OK()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no recovery over TCP: %+v", core.CheckLegitimacy(g, coreNodes(c)))
	}
}

// TestTCPLiteralVariant runs the literal exchange over TCP.
func TestTCPLiteralVariant(t *testing.T) {
	g := graph.Wheel(7)
	cfg := core.DefaultConfig(g.N())
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewLiteralNode(id, nbrs, cfg)
	}, Config{})
	ok, err := c.RunUntil(250*time.Millisecond, 40, func() bool {
		return core.CheckLegitimacy(g, coreNodes(c)).OK()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("literal exchange no legitimacy over TCP: %+v",
			core.CheckLegitimacy(g, coreNodes(c)))
	}
}

// TestStartStopIdempotence: Stop without Start is a no-op; double Start
// errors; restart works.
func TestStartStopIdempotence(t *testing.T) {
	g := graph.Ring(4)
	c := buildCore(g)
	c.Stop() // no-op
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		c.Stop()
		t.Fatal("double Start did not error")
	}
	c.Stop()
	if err := c.Start(); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
	c.Stop()
}

// Satellite regression: the Sent counter accumulates across phase
// restarts — a Stop/Start cycle must never reset it. This pins the
// whole-run traffic semantics the certificate-gated driver reports (and
// that the old restart-per-inspection loop relied on implicitly).
func TestSentAccumulatesAcrossRestarts(t *testing.T) {
	g := graph.Wheel(6)
	c := buildCore(g)
	if err := c.RunFor(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	first := c.Sent()
	if first <= 0 {
		t.Fatalf("no messages accepted in the first phase (Sent=%d)", first)
	}
	if c.Restarts() != 0 {
		t.Fatalf("Restarts=%d after one Start", c.Restarts())
	}
	if err := c.RunFor(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if second := c.Sent(); second <= first {
		t.Fatalf("Sent reset across restart: %d after restart, %d before", second, first)
	}
	if c.Restarts() != 1 {
		t.Fatalf("Restarts=%d after two Starts, want 1", c.Restarts())
	}
}

// End-to-end in-band detection: watch a running cluster over the
// side-channel control connection only — no Stop, no state inspection —
// until a detect certificate is issued, then stop once and verify the
// cluster really is legitimate and the certificate's fingerprint equals
// the combine of the stopped processes' state hashes.
func TestControlChannelCertifiesQuiescence(t *testing.T) {
	g := graph.Wheel(8)
	cfg := core.DefaultConfig(g.N())
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewNode(id, nbrs, cfg)
	}, Config{ActiveKinds: core.ReductionKinds()})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	probe, err := DialProbe(c.ControlAddr())
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	// Window sized like the harness driver: cover a full search retry
	// period in ticks (harness.QuiesceWindowRounds; restated here to
	// avoid a netrun->harness test import cycle), converted to probes.
	window := time.Duration(2*g.N()+40+2*cfg.SearchPeriod) * 2 * time.Millisecond
	det := detect.New(detect.Config{Window: int(window/(5*time.Millisecond)) + 1, Backend: "tcp"})
	deadline := time.Now().Add(60 * time.Second)
	var cert detect.Certificate
	certified := false
	for !certified && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		s, err := probe.Sample()
		if err != nil {
			probe.Close()
			c.Stop()
			t.Fatal(err)
		}
		cert, certified = det.Observe(s)
	}
	probe.Close()
	c.Stop()
	if !certified {
		t.Fatalf("no certificate within the deadline (epoch %d, streak %d)", det.Epoch(), det.Stable())
	}
	if !core.CheckLegitimacy(g, coreNodes(c)).OK() {
		t.Fatalf("certified but not legitimate: %+v", core.CheckLegitimacy(g, coreNodes(c)))
	}
	fps := make([]uint64, g.N())
	for id := range fps {
		fps[id] = c.Process(id).(*core.Node).Fingerprint()
	}
	if want := detect.Combine(fps); cert.Fingerprint != want {
		t.Fatalf("certificate fingerprint %x != combine of stopped state %x", cert.Fingerprint, want)
	}
	if cert.Sent != cert.Received {
		t.Fatalf("certificate deficit %d", cert.Sent-cert.Received)
	}
	if c.Restarts() != 0 {
		t.Fatalf("in-band detection restarted the cluster %d times", c.Restarts())
	}
}

// TestSendToNonNeighborPanics: locality is enforced over TCP too.
func TestSendToNonNeighborPanics(t *testing.T) {
	g := graph.Path(3) // 0-1-2: 0 and 2 are not adjacent
	c := buildCore(g)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	defer func() {
		if recover() == nil {
			t.Error("send to non-neighbor did not panic")
		}
	}()
	c.send(0, 2, core.UpdateDistMsg{Dist: 1})
}
