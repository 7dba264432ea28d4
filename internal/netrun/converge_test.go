package netrun_test

// End-to-end runs of the protocol over loopback TCP. They live in the
// external test package because they drive the cluster through
// harness.Run, the one wall-clock driver every CLI uses, and harness
// imports netrun.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/netrun"
	"mdst/internal/sim"
)

// runTCP runs spec on the tcp backend under a 30 s deadline and
// requires a legitimate, certified run with a spanning tree.
func runTCP(t *testing.T, spec harness.RunSpec) harness.Result {
	t.Helper()
	spec.Backend = harness.BackendTCP
	spec.Tuning.Deadline = 30 * time.Second
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no legitimacy over TCP: %+v", res.Legit)
	}
	if res.Cert == nil {
		t.Fatal("legitimate over TCP without a quiescence certificate")
	}
	if res.Tree == nil {
		t.Fatal("no spanning tree extracted over TCP")
	}
	return res
}

// TestTCPWheelConverges runs the protocol over real TCP sockets on a
// wheel graph until the configuration is legitimate — the end-to-end
// proof that the implementation works outside the simulator.
func TestTCPWheelConverges(t *testing.T) {
	res := runTCP(t, harness.RunSpec{Graph: graph.Wheel(8)})
	// Wheel(8): Δ* = 2 (Hamiltonian path exists), so deg(T) <= 3.
	if res.Tree.MaxDegree() > 3 {
		t.Fatalf("degree %d > 3 over TCP", res.Tree.MaxDegree())
	}
}

// TestTCPCorruptedStart corrupts every node before the first Start.
func TestTCPCorruptedStart(t *testing.T) {
	g := graph.RandomGnp(9, 0.45, rand.New(rand.NewSource(11)))
	runTCP(t, harness.RunSpec{Graph: g, Start: harness.StartCorrupt, Seed: 11})
}

// TestTCPLiteralVariant runs the literal exchange over TCP.
func TestTCPLiteralVariant(t *testing.T) {
	runTCP(t, harness.RunSpec{Graph: graph.Wheel(7), Variant: harness.VariantLiteral})
}

// A batched cluster must still converge through the certificate path —
// and actually coalesce: the frame count must come in well under the
// message count. This is the `make smoke` tcp-batch job.
func TestTCPBatchedWheelConverges(t *testing.T) {
	res := runTCP(t, harness.RunSpec{
		Graph:  graph.Wheel(8),
		Tuning: harness.BackendTuning{BatchSize: 16, BatchMaxWait: time.Millisecond},
	})
	sent, frames := res.TotalMessages, res.Frames
	if frames <= 0 || sent <= 0 {
		t.Fatalf("counters missing: sent=%d frames=%d", sent, frames)
	}
	if frames >= sent {
		t.Fatalf("batching never coalesced: %d frames for %d messages", frames, sent)
	}
	t.Logf("batched run: %d messages in %d frames (%.3f frames/message)",
		sent, frames, float64(frames)/float64(sent))
}

// End-to-end in-band detection: watch a running cluster over the
// side-channel control connection only — no Stop, no state inspection —
// until a detect certificate is issued, then stop once and verify the
// cluster really is legitimate and the certificate's fingerprint equals
// the combine of the stopped processes' state hashes.
func TestControlChannelCertifiesQuiescence(t *testing.T) {
	g := graph.Wheel(8)
	cfg := core.DefaultConfig(g.N())
	c := netrun.NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewNode(id, nbrs, cfg)
	}, netrun.Config{ActiveKinds: core.ReductionKinds()})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	probe, err := netrun.DialProbe(c.ControlAddr())
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	// Window sized like the harness driver: cover a full search retry
	// period in ticks, converted to probes.
	window := time.Duration(harness.QuiesceWindowRounds(g.N(), cfg.EffectiveRetryPeriod())) * 2 * time.Millisecond
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
	nodes := make([]*core.Node, g.N())
	fps := make([]uint64, g.N())
	for id := range nodes {
		nodes[id] = c.Process(id).(*core.Node)
		fps[id] = nodes[id].Fingerprint()
	}
	if leg := core.CheckLegitimacy(g, nodes); !leg.OK() {
		t.Fatalf("certified but not legitimate: %+v", leg)
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

// Example runs the protocol over real loopback TCP connections, driven
// by harness.Run, until a quiescence certificate is issued and the
// configuration is legitimate.
func Example() {
	res, err := harness.Run(harness.RunSpec{
		Graph:   graph.Wheel(8),
		Backend: harness.BackendTCP,
		Tuning:  harness.BackendTuning{Deadline: 30 * time.Second},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("legitimate over TCP:", res.Converged)
	fmt.Println("certified:", res.Cert != nil)
	fmt.Println("degree within Δ*+1:", res.Tree != nil && res.Tree.MaxDegree() <= 3)
	// Output:
	// legitimate over TCP: true
	// certified: true
	// degree within Δ*+1: true
}
