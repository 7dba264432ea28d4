package detect_test

import (
	"testing"

	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

func sample(fp uint64, versions []uint64, sent, recv int64) detect.Sample {
	return detect.Sample{
		Versions:       versions,
		Fingerprint:    fp,
		ActiveSent:     sent,
		ActiveReceived: recv,
	}
}

// The detector's core contract: a certificate is issued exactly when the
// whole observation — version vector, fingerprint, message counters —
// held still with a zero deficit for Window consecutive transitions, and
// any perturbation restarts the streak.
func TestDetectorStabilityWindow(t *testing.T) {
	d := detect.New(detect.Config{Window: 3, Backend: "test"})
	v := []uint64{1, 2, 3}

	// Observation i+1 has seen i stable transitions: only the 4th
	// completes a window of 3.
	for i := 0; i < 3; i++ {
		if _, ok := d.Observe(sample(7, v, 10, 10)); ok {
			t.Fatalf("certified after %d observations", i+1)
		}
	}
	c, ok := d.Observe(sample(7, v, 10, 10))
	if !ok {
		t.Fatalf("no certificate after 4 identical observations (stable=%d)", d.Stable())
	}
	if c.Epoch != 4 || c.Window != 3 || c.Fingerprint != 7 || c.Sent != 10 || c.Received != 10 {
		t.Fatalf("bad certificate: %+v", c)
	}
	if len(c.Versions) != 3 || c.Versions[1] != 2 {
		t.Fatalf("bad certificate versions: %v", c.Versions)
	}
	if c.Backend != "test" {
		t.Fatalf("backend not stamped: %+v", c)
	}
}

func TestDetectorStreakResets(t *testing.T) {
	perturb := []struct {
		name string
		s    detect.Sample
	}{
		{"fingerprint", sample(8, []uint64{1, 2}, 10, 10)},
		{"version", sample(7, []uint64{1, 3}, 10, 10)},
		{"counters", sample(7, []uint64{1, 2}, 11, 11)},
		{"deficit", sample(7, []uint64{1, 2}, 11, 10)},
	}
	base := sample(7, []uint64{1, 2}, 10, 10)
	for _, tc := range perturb {
		d := detect.New(detect.Config{Window: 2})
		d.Observe(base)
		d.Observe(base)
		if d.Stable() != 1 {
			t.Fatalf("%s: warmup streak %d, want 1", tc.name, d.Stable())
		}
		if _, ok := d.Observe(tc.s); ok {
			t.Fatalf("%s: perturbed observation certified", tc.name)
		}
		if d.Stable() != 0 {
			t.Fatalf("%s: streak %d after perturbation, want 0", tc.name, d.Stable())
		}
	}

	// A nonzero deficit blocks the streak even when the sample repeats
	// exactly: messages in flight mean the configuration can still act.
	d := detect.New(detect.Config{Window: 1})
	inFlight := sample(7, []uint64{1}, 5, 4)
	d.Observe(inFlight)
	if _, ok := d.Observe(inFlight); ok {
		t.Fatal("certified with a standing deficit")
	}
}

// Reset clears stability but not the epoch, so certificates issued
// after a resume still record total observation effort.
func TestDetectorReset(t *testing.T) {
	d := detect.New(detect.Config{Window: 1})
	s := sample(1, []uint64{9}, 0, 0)
	d.Observe(s)
	if _, ok := d.Observe(s); !ok {
		t.Fatal("no certificate before reset")
	}
	d.Reset()
	if d.Stable() != 0 {
		t.Fatal("streak survived Reset")
	}
	if _, ok := d.Observe(s); ok {
		t.Fatal("certified immediately after Reset (no prior sample to be stable with)")
	}
	c, ok := d.Observe(s)
	if !ok {
		t.Fatal("no certificate after re-established stability")
	}
	if c.Epoch != 4 {
		t.Fatalf("epoch %d after reset, want 4 (epochs are monotone)", c.Epoch)
	}
}

// The detector copies samples; callers may reuse their Versions buffer.
func TestDetectorSampleBufferReuse(t *testing.T) {
	d := detect.New(detect.Config{Window: 1})
	buf := []uint64{1, 2}
	d.Observe(sample(3, buf, 0, 0))
	buf[0] = 99 // caller reuses the buffer
	if _, ok := d.Observe(sample(3, []uint64{1, 2}, 0, 0)); !ok {
		t.Fatal("retained sample aliased the caller's buffer")
	}
}

// minProc is a deterministic min-gossip process: periodic "info" gossip
// (flows forever) plus an event-driven "flood" burst on every
// improvement (an active kind that stops at the fixed point) — the same
// quiescence shape as the MDST protocol's gossip vs reduction split.
type minProc struct {
	min     int
	version uint64
}

type minMsg struct {
	val   int
	kind  string
	width int
}

func (m minMsg) Kind() string { return m.kind }
func (m minMsg) Size() int    { return m.width }

func (p *minProc) Tick(ctx *sim.Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, minMsg{val: p.min, kind: "info", width: 1})
	}
}
func (p *minProc) Receive(ctx *sim.Context, _ sim.NodeID, m sim.Message) {
	if v := m.(minMsg).val; v < p.min {
		p.min = v
		p.version++
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, minMsg{val: p.min, kind: "flood", width: 1})
		}
	}
}
func (p *minProc) Fingerprint() uint64  { return uint64(p.min) + 1 }
func (p *minProc) StateVersion() uint64 { return p.version }

// Ground truth against the deterministic simulator: drive one seeded
// sim.Network round by round, feed the detector a sample per round
// built from the network's fingerprints, state versions and message
// counters (the Dijkstra–Scholten deficit of the active "flood" kind),
// and compare its decision against an identical network executed by
// sim.Network.Run with the same quiescence window.
//
// The detector can never certify before Run declares quiescence (its
// stability condition is strictly stronger: counters must freeze, not
// just the fingerprint) and must certify within a couple of rounds
// after (flood deliveries trailing the last state change perturb the
// counters for at most the rounds they are in flight).
func TestDetectorGroundTruthAgainstSimRun(t *testing.T) {
	const seed, window = 42, 12
	build := func() *sim.Network {
		g := graph.Wheel(12)
		return sim.NewNetwork(g, func(id sim.NodeID, _ []sim.NodeID) sim.Process {
			return &minProc{min: int(id) + 100}
		}, seed)
	}

	ref := build()
	res := ref.Run(sim.RunConfig{
		Scheduler:     sim.NewSyncScheduler(),
		MaxRounds:     4096,
		QuiesceRounds: window,
		ActiveKinds:   []string{"flood"},
	})
	if !res.Converged {
		t.Fatalf("reference Run did not converge: %+v", res)
	}

	net := build()
	net.InvalidateFingerprints() // mirror Run's entry rehash
	sched := sim.NewSyncScheduler()
	det := detect.New(detect.Config{Window: window, Backend: "sim"})
	var cert detect.Certificate
	certified := false
	for r := 0; r < 4096 && !certified; r++ {
		sched.RunRound(net)
		sent := net.Metrics().SentByKind["flood"]
		s := detect.Sample{
			Versions:       net.StateVersions(),
			Fingerprint:    net.Fingerprint(),
			ActiveSent:     sent,
			ActiveReceived: sent - int64(net.PendingKind("flood")),
		}
		cert, certified = det.Observe(s)
	}
	if !certified {
		t.Fatal("detector never certified the converged execution")
	}
	if int(cert.Epoch) < res.Rounds {
		t.Fatalf("detector certified at round %d, before Run's quiescence at %d", cert.Epoch, res.Rounds)
	}
	if int(cert.Epoch) > res.Rounds+3 {
		t.Fatalf("detector certified at round %d, long after Run's quiescence at %d", cert.Epoch, res.Rounds)
	}
	// Both executions are the same seeded run, so the quiesced
	// fingerprints must agree bit for bit.
	if cert.Fingerprint != ref.LastFingerprint() {
		t.Fatalf("certificate fingerprint %x != Run's quiesced fingerprint %x",
			cert.Fingerprint, ref.LastFingerprint())
	}
	if cert.Sent != cert.Received {
		t.Fatalf("certificate with nonzero deficit: %+v", cert)
	}
	// The certificate fingerprint must be reconstructible from the raw
	// per-node state hashes with the shared combine — the property that
	// makes certificates comparable across backends.
	fps := make([]uint64, 12)
	for id := range fps {
		fps[id] = net.Process(id).(*minProc).Fingerprint()
	}
	if got := detect.Combine(fps); got != cert.Fingerprint {
		t.Fatalf("Combine(state hashes) = %x, certificate says %x", got, cert.Fingerprint)
	}
}
