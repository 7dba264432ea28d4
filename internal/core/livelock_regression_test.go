package core

import (
	"math/rand"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// Regression for a concurrent-exchange livelock: two first hops of
// different exchanges (init edges {5,7} and {3,5} on this instance)
// each pass their local staleness checks yet compose into a parent
// cycle 3→7→5→3 — a conflict that is not locally detectable. The cycle
// heals by counting distances to MaxDist (~30 rounds), but with a
// common fixed SearchPeriod the same two initiators retried in lockstep
// and re-collided after every repair: the tree stayed broken for over
// half of 30000 rounds. Fixed by deterministic per-(node,edge,tick)
// search jitter plus the MaxDist guard on UpdateDist floods (which
// otherwise circulate in a parent cycle forever).
func TestLivelockRegressionSeed(t *testing.T) {
	seed := int64(-1323176858476467178)
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(10) // 14 for this seed
	g := graph.RandomGnp(n, 0.35, rng)
	net := BuildNetwork(g, DefaultConfig(n), seed)
	tree := spanning.BFSTree(g, 0)
	loadTree(g, net, tree)
	broken := 0
	net.Run(sim.RunConfig{
		Scheduler: sim.NewSyncScheduler(),
		MaxRounds: 80 * n,
		OnRound: func(r int) bool {
			if _, err := ExtractTree(g, NodesOf(net)); err != nil {
				broken++
			}
			return true
		},
	})
	if _, err := ExtractTree(g, NodesOf(net)); err != nil {
		t.Fatalf("tree still broken after %d broken rounds: %v", broken, err)
	}
	if broken > 8*n {
		t.Fatalf("breakage not transient: %d broken rounds", broken)
	}
}

// The searchJitter hash must spread retry phases: over one period the
// jitters of distinct (node, edge) pairs must not all coincide, and the
// value must stay within [0, SearchPeriod).
func TestSearchJitterSpreads(t *testing.T) {
	cfg := DefaultConfig(16)
	seen := map[int]bool{}
	for id := 0; id < 8; id++ {
		nd := NewNode(id, []int{(id + 1) % 16}, cfg)
		nd.tick = 100
		j := nd.searchJitter((id + 1) % 16)
		if j < 0 || j >= cfg.SearchPeriod {
			t.Fatalf("jitter %d out of [0,%d)", j, cfg.SearchPeriod)
		}
		seen[j] = true
	}
	if len(seen) < 3 {
		t.Fatalf("jitter collapsed to %d distinct values across 8 nodes", len(seen))
	}
}

// Regression for the wrong-root trap: rule R1 only adopts strictly
// smaller advertised roots and R2 fires only on local incoherence, so a
// corruption that leaves the minimum-ID node coherently parented inside
// a tree claiming a larger root was STABLE — the network converged to a
// fixed point rooted at the wrong node (RootIsMin false, everything
// else legitimate). Fixed by the self-ID guard in new_root_candidate
// (root > id is always illegal). Seed from a testing/quick failure.
func TestWrongRootRegressionSeed(t *testing.T) {
	seed := int64(-1786155139805918231)
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(8)
	g := graph.RandomGnp(n, 0.25+rng.Float64()*0.3, rng)
	net := BuildNetwork(g, DefaultConfig(n), seed)
	for _, nd := range NodesOf(net) {
		nd.Corrupt(rng, n)
	}
	res := runToQuiescence(net, g, sim.NewAsyncScheduler(), 0)
	if !res.Converged {
		t.Fatal("no quiescence")
	}
	leg := CheckLegitimacy(g, NodesOf(net))
	if !leg.OK() {
		t.Fatalf("not legitimate: %+v", leg)
	}
}

// Unit form of the trap: node 0 corrupted into a coherent position of a
// tree rooted at 2 must still escape (its root variable exceeds its ID).
func TestSelfIDGuardEscapesWrongRoot(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	net := BuildNetwork(g, DefaultConfig(3), 1)
	nodes := NodesOf(net)
	// Tree rooted at 2: 2 self-parented, 1 -> 2, 0 -> 1; all roots = 2;
	// coherent distances; coherent views.
	nodes[2].SetState(2, 2, 0, 1, 1, false)
	nodes[1].SetState(2, 2, 1, 1, 1, false)
	nodes[0].SetState(2, 1, 2, 1, 1, false)
	nodes[0].SetView(1, View{Root: 2, Parent: 2, Distance: 1, Dmax: 1, Submax: 1, Deg: 2})
	nodes[1].SetView(2, View{Root: 2, Parent: 2, Distance: 0, Dmax: 1, Submax: 1, Deg: 1})
	nodes[1].SetView(0, View{Root: 2, Parent: 1, Distance: 2, Dmax: 1, Submax: 1, Deg: 1})
	nodes[2].SetView(1, View{Root: 2, Parent: 2, Distance: 1, Dmax: 1, Submax: 1, Deg: 2})
	res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	if !res.Converged {
		t.Fatal("no quiescence")
	}
	leg := CheckLegitimacy(g, NodesOf(net))
	if !leg.RootIsMin {
		t.Fatalf("still rooted at the wrong node: %+v", leg)
	}
}
