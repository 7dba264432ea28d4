package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Differential guard for the Run-loop refactor (the quiesceTracker
// extraction): an inline replica of the pre-refactor per-round loop —
// scheduler round, fingerprint compare, stability counter, active-kind
// drain — must agree with the refactored sim.Network.Run on the derived
// round counter, the last-change round and every per-round fingerprint.
// Three families × two seeds, the same coverage the committed matrix
// baseline locks at the byte level.
func TestRunMatchesLegacyLoopReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	graphs := map[string]*graph.Graph{
		"wheel": graph.Wheel(12),
		"grid":  graph.Grid(4, 5),
		"gnp":   graph.RandomGnp(14, 0.3, rng),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			spec := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt, Seed: seed}
			ops := variantFor(spec)
			window := QuiesceWindowRounds(g.N(), ops.cfg.EffectiveRetryPeriod())
			maxRounds := 200*g.N() + 20000

			// Refactored path: Network.Run, recording per-round prints.
			netA := sim.NewNetwork(g, ops.factory, spec.Seed)
			if _, _, ok := buildInitial(spec, ops, netA.Process); !ok {
				t.Fatalf("%s seed %d: buildInitial failed", name, seed)
			}
			var fpsA []uint64
			resA := netA.Run(sim.RunConfig{
				Scheduler:     NewScheduler(spec.Scheduler),
				MaxRounds:     maxRounds,
				QuiesceRounds: window,
				ActiveKinds:   core.ReductionKinds(),
				OnRound: func(int) bool {
					fpsA = append(fpsA, netA.LastFingerprint())
					return true
				},
			})

			// Inline replica of the legacy loop over the same spec/seed.
			netB := sim.NewNetwork(g, ops.factory, spec.Seed)
			if _, _, ok := buildInitial(spec, ops, netB.Process); !ok {
				t.Fatalf("%s seed %d: buildInitial failed", name, seed)
			}
			sched := NewScheduler(spec.Scheduler)
			netB.InvalidateFingerprints()
			lastFP := netB.Fingerprint()
			var fpsB []uint64
			rounds, lastChange, stable := 0, 0, 0
			converged := false
			for r := 0; r < maxRounds; r++ {
				sched.RunRound(netB)
				rounds++
				fp := netB.Fingerprint()
				if fp != lastFP {
					lastFP = fp
					stable = 0
					lastChange = rounds
				} else {
					stable++
				}
				drained := true
				for _, k := range core.ReductionKinds() {
					if netB.PendingKind(k) > 0 {
						drained = false
						break
					}
				}
				if window > 0 && stable >= window && drained {
					converged = true
					break
				}
				fpsB = append(fpsB, fp)
			}

			if resA.Converged != converged || resA.Rounds != rounds ||
				resA.LastChangeRound != lastChange {
				t.Fatalf("%s seed %d: refactored (conv=%v rounds=%d last=%d) vs replica (conv=%v rounds=%d last=%d)",
					name, seed, resA.Converged, resA.Rounds, resA.LastChangeRound,
					converged, rounds, lastChange)
			}
			if len(fpsA) != len(fpsB) {
				t.Fatalf("%s seed %d: %d vs %d per-round fingerprints",
					name, seed, len(fpsA), len(fpsB))
			}
			for i := range fpsA {
				if fpsA[i] != fpsB[i] {
					t.Fatalf("%s seed %d: round %d fingerprint %#x vs %#x",
						name, seed, i+1, fpsA[i], fpsB[i])
				}
			}
		}
	}
}
