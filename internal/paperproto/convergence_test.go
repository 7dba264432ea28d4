package paperproto

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// Property: from a fully corrupted configuration on a random connected
// graph, the literal variant converges to a legitimate configuration
// whose tree degree is at most Δ*+1 — Theorem 2 plus Definition 1
// convergence for the second implementation of the protocol.
func TestQuickConvergenceWithinOneOfOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("long protocol property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		g := graph.RandomGnp(n, 0.25+rng.Float64()*0.3, rng)
		net := BuildNetwork(g, DefaultConfig(n), seed)
		CorruptAll(net, rng)
		res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
		if !res.Converged {
			t.Logf("seed %d: no quiescence", seed)
			return false
		}
		leg := CheckLegitimacy(g, NodesOf(net))
		if !leg.OK() {
			t.Logf("seed %d: legitimacy %+v", seed, leg)
			return false
		}
		star, ok := mdstseq.ExactDelta(g, 0)
		if !ok {
			return true
		}
		if leg.MaxDegree > star+1 {
			t.Logf("seed %d: degree %d > Δ*+1 = %d", seed, leg.MaxDegree, star+1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Differential property: on the same instance, the primary (S3 chain)
// and the literal variants both converge within the Theorem 2 bound.
// Their final trees may differ (the exchanges commit in different
// orders) but both are Fürer–Raghavachari fixed points.
func TestQuickDifferentialVsCore(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		g := graph.RandomGnp(n, 0.3+rng.Float64()*0.2, rng)

		litNet := BuildNetwork(g, DefaultConfig(n), seed)
		CorruptAll(litNet, rand.New(rand.NewSource(seed)))
		litRes := runToQuiescence(litNet, g, sim.NewSyncScheduler(), 0)

		coreNet := core.BuildNetwork(g, core.DefaultConfig(n), seed)
		coreRng := rand.New(rand.NewSource(seed))
		for _, nd := range core.NodesOf(coreNet) {
			nd.Corrupt(coreRng, n)
		}
		coreRes := coreNet.Run(sim.RunConfig{
			Scheduler:     sim.NewSyncScheduler(),
			MaxRounds:     200*n + 20000,
			QuiesceRounds: 2*n + 40,
			ActiveKinds:   core.ReductionKinds(),
		})

		if !litRes.Converged || !coreRes.Converged {
			t.Logf("seed %d: converged lit=%v core=%v", seed, litRes.Converged, coreRes.Converged)
			return false
		}
		litLeg := CheckLegitimacy(g, NodesOf(litNet))
		coreLeg := core.CheckLegitimacy(g, core.NodesOf(coreNet))
		if !litLeg.OK() || !coreLeg.OK() {
			t.Logf("seed %d: legit lit=%+v core=%+v", seed, litLeg, coreLeg)
			return false
		}
		star, ok := mdstseq.ExactDelta(g, 0)
		if !ok {
			return true
		}
		if litLeg.MaxDegree > star+1 || coreLeg.MaxDegree > star+1 {
			t.Logf("seed %d: degrees lit=%d core=%d Δ*+1=%d",
				seed, litLeg.MaxDegree, coreLeg.MaxDegree, star+1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The variant converges under the random-asynchronous and adversarial
// schedulers too (the paper's model is fully asynchronous).
func TestConvergenceUnderAsyncSchedulers(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"async":       func() sim.Scheduler { return sim.NewAsyncScheduler() },
		"adversarial": func() sim.Scheduler { return sim.NewAdversarialScheduler() },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 8 + rng.Intn(5)
				g := graph.RandomGnp(n, 0.35, rng)
				net := BuildNetwork(g, DefaultConfig(n), seed)
				CorruptAll(net, rng)
				res := runToQuiescence(net, g, mk(), 0)
				if !res.Converged {
					t.Fatalf("seed %d: no quiescence in %d rounds", seed, res.Rounds)
				}
				leg := CheckLegitimacy(g, NodesOf(net))
				if !leg.OK() {
					t.Fatalf("seed %d: not legitimate: %+v", seed, leg)
				}
			}
		})
	}
}

// Closure: from a legitimate configuration the tree degree never grows.
// Unlike the S3 chain variant — whose closure test asserts a valid
// spanning tree at *every* round — the literal choreography may
// transiently break the tree while a blocking-node exchange is mid
// flight (that is precisely what this variant exists to exercise); the
// degree bound must hold for every valid configuration, breakage must
// be transient, and the run must end in a valid tree of degree <= k.
func TestClosureFromLegitimateConfiguration(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomGnp(14, 0.3, rng)
		net := BuildNetwork(g, DefaultConfig(14), seed)
		start := preload(t, g, net)
		k := start.MaxDegree()
		broken, total := 0, 0
		net.Run(sim.RunConfig{
			Scheduler: sim.NewSyncScheduler(),
			MaxRounds: 400,
			OnRound: func(r int) bool {
				total++
				tree, err := ExtractTree(g, NodesOf(net))
				if err != nil {
					broken++
					return true
				}
				if tree.MaxDegree() > k {
					t.Fatalf("seed %d round %d: degree %d exceeded initial %d",
						seed, r, tree.MaxDegree(), k)
				}
				return true
			},
		})
		if broken > total/4 {
			t.Fatalf("seed %d: tree broken in %d/%d rounds — not transient", seed, broken, total)
		}
		leg := CheckLegitimacy(g, NodesOf(net))
		if !leg.TreeValid || !leg.RootIsMin {
			t.Fatalf("seed %d: closure violated: %+v", seed, leg)
		}
		tree, _ := ExtractTree(g, NodesOf(net))
		if tree.MaxDegree() > k {
			t.Fatalf("seed %d: final degree %d exceeds initial fixed point %d",
				seed, tree.MaxDegree(), k)
		}
	}
}

// Transient breakage is allowed mid-exchange but must always heal: the
// run ends with a single valid spanning tree.
func TestQuickTreeBreakageHeals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := graph.RandomGnp(n, 0.35, rng)
		net := BuildNetwork(g, DefaultConfig(n), seed)
		tree := spanning.BFSTree(g, 0)
		loadTree(g, net, tree)
		broken := 0
		// Budget: colliding concurrent exchanges can oscillate for
		// thousands of rounds on small dense instances before the
		// jittered retries separate — still within the paper's own
		// O(m n^2 log n) bound, which for n=8, m=17 already exceeds
		// 3000 rounds. 800n covers the worst observed seed with margin.
		net.Run(sim.RunConfig{
			Scheduler: sim.NewSyncScheduler(),
			MaxRounds: 800 * n,
			OnRound: func(r int) bool {
				if _, err := ExtractTree(g, NodesOf(net)); err != nil {
					broken++
				}
				return true
			},
		})
		if _, err := ExtractTree(g, NodesOf(net)); err != nil {
			t.Logf("seed %d: tree still broken at end (%d broken rounds): %v", seed, broken, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical seeds give identical executions.
func TestDeterministicExecution(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() (uint64, int64) {
		net := BuildNetwork(g, DefaultConfig(16), 77)
		CorruptAll(net, rand.New(rand.NewSource(99)))
		runToQuiescence(net, g, sim.NewAsyncScheduler(), 3000)
		return net.Fingerprint(), net.Metrics().Events
	}
	f1, e1 := run()
	f2, e2 := run()
	if f1 != f2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", f1, e1, f2, e2)
	}
}

// Fault recovery: corrupt a subset of nodes in a stabilized network and
// verify re-convergence (Definition 1 applied mid-run).
func TestRecoveryFromPartialCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomGeometric(20, 0.45, rng)
	net := BuildNetwork(g, DefaultConfig(20), 7)
	res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	if !res.Converged {
		t.Fatal("initial convergence failed")
	}
	nodes := NodesOf(net)
	for _, v := range []int{3, 9, 14} {
		nodes[v].Corrupt(rng, 20)
	}
	res = runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	if !res.Converged {
		t.Fatal("no re-convergence after corruption")
	}
	leg := CheckLegitimacy(g, nodes)
	if !leg.OK() {
		t.Fatalf("not legitimate after recovery: %+v", leg)
	}
}

// Fault injection in the middle of a running exchange: corruptions
// landing while Remove/Back messages are in flight must not prevent
// re-convergence (the choreography's staleness checks abort against
// corrupted parents and the periodic search retries).
func TestCorruptionMidChoreography(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(6)
		g := graph.RandomGnp(n, 0.4, rng)
		net := BuildNetwork(g, DefaultConfig(n), seed)
		CorruptAll(net, rng)
		hits := 0
		net.Run(sim.RunConfig{
			Scheduler: sim.NewSyncScheduler(),
			MaxRounds: 60 * n,
			OnRound: func(r int) bool {
				// Whenever choreography traffic is in flight, corrupt a
				// random node (at most 3 times per run).
				if hits < 3 && (net.PendingKind(KindRemove) > 0 || net.PendingKind(KindBack) > 0) {
					NodesOf(net)[rng.Intn(n)].Corrupt(rng, n)
					hits++
				}
				return true
			},
		})
		res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
		if !res.Converged {
			t.Fatalf("seed %d: no quiescence after %d mid-exchange corruptions", seed, hits)
		}
		leg := CheckLegitimacy(g, NodesOf(net))
		if !leg.OK() {
			t.Fatalf("seed %d: not legitimate after mid-exchange faults: %+v", seed, leg)
		}
	}
}

// TestSteadyGossipAllocsPerTick is the literal variant's allocation
// gate for gossip (see core's twin): a steady sync round on a converged
// wheel with reduction off may allocate at most once per node tick.
func TestSteadyGossipAllocsPerTick(t *testing.T) {
	g := graph.Wheel(16)
	cfg := DefaultConfig(g.N())
	cfg.DisableReduction = true
	net := BuildNetwork(g, cfg, 3)
	sched := sim.NewSyncScheduler()
	res := net.Run(sim.RunConfig{Scheduler: sched, MaxRounds: 2000,
		QuiesceRounds: 56, ActiveKinds: core.ReductionKinds()})
	if !res.Converged {
		t.Fatal("wheel did not converge")
	}
	allocs := testing.AllocsPerRun(20, func() { sched.RunRound(net) })
	if allocs > float64(g.N()) {
		t.Fatalf("steady sync round allocates %.1f times for %d node ticks (2m = %d)",
			allocs, g.N(), 2*g.M())
	}
}
