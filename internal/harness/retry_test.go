package harness

import (
	"math/rand"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/metrics"
	"mdst/internal/sim"
)

// retryConfig is the default configuration for g under retry policy p.
func retryConfig(g *graph.Graph, p core.RetryPolicy) core.Config {
	cfg := core.DefaultConfig(g.N())
	cfg.Retry = p
	return cfg
}

// Config is the only way to pick a retry policy, so a partial Config
// must not run: one with only Retry set would otherwise execute with a
// zero MaxDist and SearchPeriod instead of the default it meant to
// extend.
func TestValidateRejectsPartialConfig(t *testing.T) {
	g := graph.Wheel(8)
	if err := (RunSpec{Graph: g, Config: core.Config{Retry: core.RetryBackoff}}).Validate(); err == nil {
		t.Fatal("a Config with only Retry set was accepted")
	}
	if err := (RunSpec{Graph: g, Config: retryConfig(g, core.RetryBackoff)}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// The incremental fingerprint cache must be invisible: every snapshot a
// collected run takes, from the initial configuration on, carries the
// combined fingerprint detect.Combine computes over every node's
// Fingerprint from scratch. Both exchanges run under every scheduler on
// reliable and lossy links on the compat core, and on the event core,
// whose one ordering is sync.
func TestLastFingerprintMatchesFromScratchCombine(t *testing.T) {
	g := graph.RandomGnp(14, 0.3, rand.New(rand.NewSource(9)))
	type mode struct {
		engine Engine
		sched  SchedulerKind
		drop   float64
	}
	var modes []mode
	for _, sched := range []SchedulerKind{SchedSync, SchedAsync, SchedAdversarial} {
		modes = append(modes, mode{EngineCompat, sched, 0}, mode{EngineCompat, sched, 0.2})
	}
	modes = append(modes, mode{EngineEvent, SchedSync, 0})
	for _, variant := range []Variant{VariantCore, VariantLiteral} {
		for _, m := range modes {
			spec := RunSpec{Graph: g, Variant: variant, Scheduler: m.sched, Start: StartCorrupt,
				Seed: 5, Engine: m.engine, DropRate: m.drop}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			ops := variantFor(spec)
			net := sim.NewNetwork(g, ops.factory, spec.Seed)
			nodes, _, ok := buildInitial(spec, ops, net.Process)
			if !ok {
				t.Fatal("corrupt start failed to build")
			}
			checked := 0
			spec.Collect = &metrics.Collector{OnSnapshot: func(s metrics.Snapshot) {
				fps := make([]uint64, len(nodes))
				for i, nd := range nodes {
					fps[i] = nd.Fingerprint()
				}
				if want := detect.Combine(fps); s.Fingerprint != want {
					t.Fatalf("%s/%s/%s/drop=%v epoch %d: snapshot fingerprint %x, from scratch %x",
						variant, m.sched, m.engine, m.drop, s.Epoch, s.Fingerprint, want)
				}
				checked++
			}}
			driveSim(spec, ops, net, nodes, time.Now())
			if checked < 2 {
				t.Fatalf("%s/%s/%s/drop=%v: %d snapshot(s) observed", variant, m.sched, m.engine, m.drop, checked)
			}
		}
	}
}
