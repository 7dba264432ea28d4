package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
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

// The incremental fingerprint cache must be invisible: after every
// round, the combined fingerprint the run loop keeps equals
// detect.Combine over every node's Fingerprint computed from scratch.
// Both exchanges run under every scheduler, on reliable and lossy links
// on the compat core and on the event core.
func TestLastFingerprintMatchesFromScratchCombine(t *testing.T) {
	g := graph.RandomGnp(14, 0.3, rand.New(rand.NewSource(9)))
	modes := []struct {
		engine Engine
		drop   float64
	}{{EngineCompat, 0}, {EngineCompat, 0.2}, {EngineEvent, 0}}
	for _, variant := range []Variant{VariantCore, VariantLiteral} {
		for _, sched := range []SchedulerKind{SchedSync, SchedAsync, SchedAdversarial} {
			for _, m := range modes {
				spec := RunSpec{Graph: g, Variant: variant, Scheduler: sched, Start: StartCorrupt,
					Seed: 5, Engine: m.engine, DropRate: m.drop}
				if err := spec.Validate(); err != nil {
					t.Fatal(err)
				}
				checked := 0
				runSim(spec, variantFor(spec), func(round int, net *sim.Network, nodes []*core.Node) {
					if round == 0 {
						return // the corruption has not reached the cache yet; Run re-seeds it
					}
					fps := make([]uint64, len(nodes))
					for i, nd := range nodes {
						fps[i] = nd.Fingerprint()
					}
					if got, want := net.LastFingerprint(), detect.Combine(fps); got != want {
						t.Fatalf("%s/%s/%s/drop=%v round %d: cached fingerprint %x, from scratch %x",
							variant, sched, m.engine, m.drop, round, got, want)
					}
					checked++
				})
				if checked == 0 {
					t.Fatalf("%s/%s/%s/drop=%v: no round observed", variant, sched, m.engine, m.drop)
				}
			}
		}
	}
}
