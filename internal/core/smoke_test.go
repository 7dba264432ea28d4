package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
)

func runOnce(t *testing.T, name string, g *graph.Graph, cfg Config, seed int64, sched sim.Scheduler, corrupt bool) {
	t.Helper()
	net := BuildNetwork(g, cfg, seed)
	if corrupt {
		rng := rand.New(rand.NewSource(seed + 1000))
		for _, nd := range NodesOf(net) {
			nd.Corrupt(rng, g.N())
		}
	}
	res := net.Run(sim.RunConfig{
		Scheduler:     sched,
		MaxRounds:     20000,
		QuiesceRounds: 2*g.N() + 40,
		ActiveKinds:   ReductionKinds(),
	})
	leg := CheckLegitimacy(g, NodesOf(net))
	fmt.Printf("%s: converged=%v rounds=%d lastChange=%d deg=%d legOK=%v detail=%s\n",
		name, res.Converged, res.Rounds, res.LastChangeRound, leg.MaxDegree, leg.OK(), leg.Detail)
	if !res.Converged || !leg.OK() {
		t.Errorf("%s FAILED: %+v", name, leg)
	}
}

func TestSmokeConvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"wheel8", graph.Wheel(8)},
		{"ring12", graph.Ring(12)},
		{"grid4", graph.Grid(4, 4)},
		{"gnp20", graph.RandomGnp(20, 0.25, rand.New(rand.NewSource(1)))},
		{"cliques", graph.StarOfCliques(3, 4)},
		{"ham24", graph.HamiltonianAugmented(24, 40, rand.New(rand.NewSource(2)))},
	} {
		runOnce(t, tc.name+"/sync", tc.g, DefaultConfig(tc.g.N()), 42, sim.NewSyncScheduler(), false)
		runOnce(t, tc.name+"/sync-corrupt", tc.g, DefaultConfig(tc.g.N()), 43, sim.NewSyncScheduler(), true)
		runOnce(t, tc.name+"/async-corrupt", tc.g, DefaultConfig(tc.g.N()), 44, sim.NewAsyncScheduler(), true)
	}
}

func TestSmokeRepairReset(t *testing.T) {
	g := graph.RandomGnp(16, 0.3, rand.New(rand.NewSource(3)))
	cfg := DefaultConfig(g.N())
	cfg.Repair = RepairReset
	runOnce(t, "reset-corrupt", g, cfg, 45, sim.NewSyncScheduler(), true)
}

// TestSmokeWheel runs both exchanges on a wheel graph (hub degree n-1 in
// the worst starting tree; Δ* = 3 for n >= 7) from a clean start.
func TestSmokeWheel(t *testing.T) {
	g := graph.Wheel(10)
	star, ok := mdstseq.ExactDelta(g, 0)
	if !ok {
		t.Fatal("exact solver gave up on a 10-node wheel")
	}
	for _, x := range exchanges {
		net := buildNet(g, DefaultConfig(g.N()), 1, x.newNode)
		res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
		if !res.Converged {
			t.Fatalf("%s: no quiescence in %d rounds", x.name, res.Rounds)
		}
		leg := CheckLegitimacy(g, NodesOf(net))
		if !leg.OK() {
			t.Fatalf("%s: not legitimate: %+v", x.name, leg)
		}
		if leg.MaxDegree > star+1 {
			t.Fatalf("%s: degree %d > Δ*+1 = %d", x.name, leg.MaxDegree, star+1)
		}
		if st := AggregateStats(NodesOf(net)); st.ExchangesComplete == 0 {
			t.Fatalf("%s: no exchange ever completed", x.name)
		}
	}
}

// TestSmokeCorrupted runs both exchanges from fully corrupted states on
// a few seeds.
func TestSmokeCorrupted(t *testing.T) {
	for _, x := range exchanges {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(6)
			g := graph.RandomGnp(n, 0.4, rng)
			net := buildNet(g, DefaultConfig(n), seed, x.newNode)
			corruptAll(net, rng)
			res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
			if !res.Converged {
				t.Fatalf("%s seed %d: no quiescence in %d rounds", x.name, seed, res.Rounds)
			}
			leg := CheckLegitimacy(g, NodesOf(net))
			if !leg.OK() {
				t.Fatalf("%s seed %d: not legitimate: %+v", x.name, seed, leg)
			}
			if star, ok := mdstseq.ExactDelta(g, 0); ok && leg.MaxDegree > star+1 {
				t.Fatalf("%s seed %d: degree %d > Δ*+1 = %d", x.name, seed, leg.MaxDegree, star+1)
			}
		}
	}
}
