package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		err  bool
	}{
		{"", EngineCompat, false},
		{"compat", EngineCompat, false},
		{"event", EngineEvent, false},
		{"turbo", "", true},
	} {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseEngine(%q) err = %v", tc.in, err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseEngine(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := Engines(); len(got) != 2 || got[0] != EngineCompat || got[1] != EngineEvent {
		t.Errorf("Engines() = %v", got)
	}
}

func TestValidateRejectsEngineMisuse(t *testing.T) {
	g := graph.Ring(8)
	if err := (RunSpec{Graph: g, Engine: "warp"}).Validate(); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := (RunSpec{Graph: g, Engine: EngineEvent, Backend: BackendTCP}).Validate(); err == nil {
		t.Error("event engine accepted on a wall-clock backend")
	}
	if err := (RunSpec{Graph: g, Engine: EngineEvent, DropRate: 0.1}).Validate(); err == nil {
		t.Error("event engine accepted with lossy links")
	}
	if err := (RunSpec{Graph: g, Engine: EngineEvent}).Validate(); err != nil {
		t.Errorf("valid event spec rejected: %v", err)
	}
}

// The tentpole differential: on paired seeds the event core must reach
// the same legitimacy predicate and the same Δ*+1 degree bracket as the
// compat core — the schedules differ, the outcome claims may not.
func TestEventEngineMatchesCompatOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := map[string]*graph.Graph{
		"wheel": graph.Wheel(10),
		"grid":  graph.Grid(4, 4),
		"gnp":   graph.RandomGnp(12, 0.35, rng),
	}
	for name, g := range graphs {
		for _, sched := range []SchedulerKind{SchedSync, SchedAsync, SchedAdversarial} {
			for _, variant := range []Variant{VariantCore, VariantLiteral} {
				for seed := int64(1); seed <= 2; seed++ {
					spec := RunSpec{Graph: g, Scheduler: sched, Variant: variant,
						Start: StartCorrupt, Seed: seed}
					compat := MustRun(spec)
					spec.Engine = EngineEvent
					event := MustRun(spec)
					label := name + "/" + string(sched) + "/" + string(variant)
					if compat.Converged != event.Converged {
						t.Fatalf("%s seed %d: converged compat=%v event=%v",
							label, seed, compat.Converged, event.Converged)
					}
					if compat.Legit.OK() != event.Legit.OK() {
						t.Fatalf("%s seed %d: legit compat=%+v event=%+v",
							label, seed, compat.Legit, event.Legit)
					}
					star, ok := mdstseq.ExactDelta(g, 0)
					if ok && event.Legit.OK() && event.Legit.MaxDegree > star+1 {
						t.Fatalf("%s seed %d: event degree %d > Δ*+1 = %d",
							label, seed, event.Legit.MaxDegree, star+1)
					}
				}
			}
		}
	}
}

// Round-view equivalence on the event core. On a corrupt (or any
// still-moving) start the two cores take different — equally valid —
// asynchronous schedules, so only their OUTCOMES must agree
// (TestEventEngineMatchesCompatOutcome); the exact legacy delivery/tick
// replay is what EngineCompat is, and TestRunMatchesLegacyLoopReplica
// pins that byte for byte on wheel/grid/gnp. But at a protocol fixed
// point "parked" must mean "state no-op": the post-round fingerprint of
// every EXECUTED event round must equal the legacy full-sweep loop's
// fingerprint at the same round index, the fingerprint must hold still
// across fast-forwarded gaps, and the derived rounds/last-change
// counters must agree exactly — this is the contract that lets
// round-denominated outputs (windows, certificates) keep their meaning
// when most rounds are never executed.
func TestEventRoundViewMatchesLegacyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := map[string]*graph.Graph{
		"ring":        graph.Ring(32),
		"wheel":       graph.Wheel(12), // rim 1..n-1 consecutive: canonical path exists
		"ring+chords": graph.RingWithChords(64, 32, rng),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			spec := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartPath, Seed: seed}
			ops := variantFor(spec)
			window := QuiesceWindowRounds(g.N(), ops.cfg.EffectiveRetryPeriod())
			maxRounds := 200*g.N() + 20000

			netA := sim.NewNetwork(g, ops.factory, spec.Seed)
			if _, _, ok := buildInitial(spec, ops, netA.Process); !ok {
				t.Fatalf("%s seed %d: buildInitial failed", name, seed)
			}
			var fpsA []uint64 // fpsA[r] = fingerprint after legacy round r+1
			resA := netA.Run(sim.RunConfig{
				Scheduler: NewScheduler(spec.Scheduler), MaxRounds: maxRounds,
				QuiesceRounds: window, ActiveKinds: core.ReductionKinds(),
				OnRound: func(int) bool {
					fpsA = append(fpsA, netA.LastFingerprint())
					return true
				},
			})

			netB := sim.NewNetwork(g, ops.factory, spec.Seed)
			if _, _, ok := buildInitial(spec, ops, netB.Process); !ok {
				t.Fatalf("%s seed %d: buildInitial failed", name, seed)
			}
			type exec struct {
				round int
				fp    uint64
			}
			var execd []exec
			resB := netB.RunEvents(sim.EventConfig{
				Policy: sim.EventPolicySync, MaxRounds: maxRounds,
				QuiesceRounds: window, ActiveKinds: core.ReductionKinds(),
				OnRound: func(r int) bool {
					execd = append(execd, exec{r, netB.LastFingerprint()})
					return true
				},
			})

			label := name
			if resA.Rounds != resB.Rounds || resA.LastChangeRound != resB.LastChangeRound {
				t.Fatalf("%s seed %d: derived clock diverged: compat rounds=%d/last=%d event rounds=%d/last=%d",
					label, seed, resA.Rounds, resA.LastChangeRound, resB.Rounds, resB.LastChangeRound)
			}
			prev := 0
			var prevFP uint64
			first := true
			for _, e := range execd {
				if e.round >= len(fpsA) {
					break // legacy loop stopped inside its final window
				}
				if e.fp != fpsA[e.round] {
					t.Fatalf("%s seed %d: fingerprint diverged at executed round %d: compat %d event %d",
						label, seed, e.round, fpsA[e.round], e.fp)
				}
				// A fast-forwarded gap means no node had work, so the legacy
				// fingerprint must be flat across it.
				if !first {
					for r := prev + 1; r < e.round; r++ {
						if fpsA[r] != prevFP {
							t.Fatalf("%s seed %d: legacy state moved in skipped round %d",
								label, seed, r)
						}
					}
				}
				prev, prevFP, first = e.round, e.fp, false
			}
			if len(execd) == 0 {
				t.Fatalf("%s seed %d: event core executed no rounds", label, seed)
			}
		}
	}
}

// StartPath preloads the canonical Hamiltonian-path configuration: on a
// canonical-ring graph it is a full fixed point of degree 2 (the global
// optimum), so the closure run certifies with the search module off and
// — on the event engine — near-zero executed events. On a graph without
// the canonical path edges the preload must fail as a reported
// illegitimacy, not a panic or an execution error.
func TestStartPathClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RingWithChords(256, 128, rng)
	for _, eng := range Engines() {
		res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartPath,
			Seed: 3, Engine: eng})
		if !res.Converged || !res.Legit.OK() {
			t.Fatalf("%s: path closure run failed: converged=%v legit=%+v",
				eng, res.Converged, res.Legit)
		}
		if res.LastChange != 0 {
			t.Fatalf("%s: path start is not a fixed point: last change at round %d",
				eng, res.LastChange)
		}
		if deg := res.Tree.MaxDegree(); deg != 2 {
			t.Fatalf("%s: path tree degree %d, want 2", eng, deg)
		}
		if res.Cert == nil {
			t.Fatalf("%s: converged closure run carries no certificate", eng)
		}
	}

	// Grid(4,4) has no edge between row ends (3,4), so the canonical path
	// does not exist.
	res, err := Run(RunSpec{Graph: graph.Grid(4, 4), Scheduler: SchedSync,
		Start: StartPath, Seed: 1})
	if err != nil {
		t.Fatalf("preload failure escalated to an execution error: %v", err)
	}
	if res.Legit.OK() || res.Legit.Detail == "" {
		t.Fatalf("missing canonical path not reported: %+v", res.Legit)
	}
}

// The event core is as deterministic as the compat core: a spec and seed
// fully determine the execution.
func TestEventEngineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomGnp(20, 0.3, rng)
	spec := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt,
		Seed: 11, Engine: EngineEvent}
	a, b := MustRun(spec), MustRun(spec)
	if a.Rounds != b.Rounds || a.LastChange != b.LastChange ||
		a.TotalMessages != b.TotalMessages ||
		a.Metrics.Events != b.Metrics.Events {
		t.Fatalf("nondeterministic event runs: %+v vs %+v", a, b)
	}
}

// Frontier parking is the point of the event core: on a preloaded
// legitimate configuration nothing needs to run beyond the initial
// settling, so the event engine must execute far fewer events than the
// compat engine's full sweep of every quiescence-window round.
func TestEventEngineParksIdleNodes(t *testing.T) {
	g := graph.Ring(64)
	spec := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartLegitimate, Seed: 5}
	compat := MustRun(spec)
	spec.Engine = EngineEvent
	event := MustRun(spec)
	if !compat.Converged || !event.Converged {
		t.Fatalf("legitimate start did not converge: compat=%v event=%v",
			compat.Converged, event.Converged)
	}
	if event.Metrics.Events*2 >= compat.Metrics.Events {
		t.Fatalf("no frontier win: event executed %d events, compat %d",
			event.Metrics.Events, compat.Metrics.Events)
	}
	// The quiescence certificate must exist and carry the event run's
	// derived round clock.
	if event.Cert == nil || event.Cert.Epoch != uint64(event.Rounds) {
		t.Fatalf("event certificate missing or mis-stamped: %+v", event.Cert)
	}
	// Tail work after the last state change is the frontier figure of
	// merit: the parked network must not keep executing events through
	// the stability window.
	tail := event.Metrics.Events - event.Metrics.EventsAtLastChange
	if tail > int64(g.N())*8 {
		t.Fatalf("tail events %d not sub-linear in window×n", tail)
	}
}
