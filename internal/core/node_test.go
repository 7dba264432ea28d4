package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// preload writes a legitimate configuration (stabilized BFS tree reduced
// to a Fürer–Raghavachari fixed point, coherent views) into a network.
// Mirrors harness.Preload but lives here to avoid an import cycle.
func preload(t *testing.T, g *graph.Graph, net *sim.Network) *spanning.Tree {
	t.Helper()
	tree := spanning.BFSTree(g, 0)
	mdstseq.FurerRaghavachari(tree)
	loadTree(g, net, tree)
	return tree
}

// loadTree installs an arbitrary valid tree (plus coherent degree data)
// as the current configuration.
func loadTree(g *graph.Graph, net *sim.Network, tree *spanning.Tree) {
	k := tree.MaxDegree()
	deg := tree.Degrees()
	submax := make([]int, g.N())
	// Fold submax bottom-up by repeated passes (n is small in tests).
	for pass := 0; pass < g.N(); pass++ {
		for v := 0; v < g.N(); v++ {
			submax[v] = deg[v]
			for _, c := range tree.Children(v) {
				if submax[c] > submax[v] {
					submax[v] = submax[c]
				}
			}
		}
	}
	depth := tree.Depths()
	nodes := NodesOf(net)
	for i, nd := range nodes {
		nd.SetState(tree.Root(), tree.Parent(i), depth[i], k, submax[i], false)
	}
	for i, nd := range nodes {
		for _, u := range g.Neighbors(i) {
			nd.SetView(u, View{
				Root:     tree.Root(),
				Parent:   tree.Parent(u),
				Distance: depth[u],
				Dmax:     k,
				Submax:   submax[u],
				Deg:      deg[u],
				Color:    false,
			})
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(20)
	if cfg.MaxDist != 44 || cfg.SearchPeriod <= 0 || cfg.DeblockTTL <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.WordBits != bitsFor(44) {
		t.Fatal("WordBits")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for in, want := range cases {
		if got := bitsFor(in); got != want {
			t.Errorf("bitsFor(%d)=%d, want %d", in, got, want)
		}
	}
}

func TestDegDerivation(t *testing.T) {
	// Path 0-1-2: node 1's degree derives from its own parent pointer and
	// the neighbors' copied parent pointers.
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	nodes := NodesOf(net)
	// Tree: 1 -> 0, 2 -> 1.
	nodes[1].SetState(0, 0, 1, 2, 2, false)
	nodes[1].SetView(0, View{Root: 0, Parent: 0, Deg: 1})
	nodes[1].SetView(2, View{Root: 0, Parent: 1, Distance: 2, Deg: 1})
	if nodes[1].Deg() != 2 {
		t.Fatalf("deg=%d, want 2", nodes[1].Deg())
	}
	// If 2 re-parents away (view update), node 1 loses the edge.
	nodes[1].SetView(2, View{Root: 0, Parent: 2, Deg: 0})
	if nodes[1].Deg() != 1 {
		t.Fatalf("deg=%d, want 1", nodes[1].Deg())
	}
}

func TestPredicatesOnCleanStart(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	n1 := NodesOf(net)[1]
	// Clean start: every node is its own root; views claim neighbors are
	// their own roots too.
	if !n1.coherentParent() || !n1.coherentDistance() {
		t.Fatal("self-root must be coherent")
	}
	if !n1.betterParent() {
		t.Fatal("node 1 must see node 0 as a better parent")
	}
	n1.runTreeModule()
	if n1.Parent() != 0 || n1.Root() != 0 || n1.Distance() != 1 {
		t.Fatalf("R1 failed: parent=%d root=%d dist=%d", n1.Parent(), n1.Root(), n1.Distance())
	}
}

func TestRuleR2Reset(t *testing.T) {
	g := graph.Path(3)
	cfg := DefaultConfig(3)
	cfg.Repair = RepairReset
	net := BuildNetwork(g, cfg, 1)
	n1 := NodesOf(net)[1]
	// Incoherent: parent 0 claims root 0, but node 1 believes root 2.
	n1.SetState(2, 0, 1, 0, 0, false)
	n1.SetView(0, View{Root: 0, Parent: 0, Distance: 0})
	n1.SetView(2, View{Root: 2, Parent: 2, Distance: 0})
	n1.runTreeModule()
	// R2 resets, then R1 may immediately adopt the better root 0.
	if n1.Root() != 0 || n1.Parent() != 0 {
		t.Fatalf("after repair: root=%d parent=%d", n1.Root(), n1.Parent())
	}
}

func TestRuleR2PatchKeepsParent(t *testing.T) {
	g := graph.Path(3)
	cfg := DefaultConfig(3)
	cfg.Repair = RepairPatch
	net := BuildNetwork(g, cfg, 1)
	n1 := NodesOf(net)[1]
	// Parent relation sound (roots match) but distance drifted.
	n1.SetState(0, 0, 7, 0, 0, false)
	n1.SetView(0, View{Root: 0, Parent: 0, Distance: 0})
	n1.SetView(2, View{Root: 0, Parent: 1, Distance: 8})
	n1.runTreeModule()
	if n1.Parent() != 0 || n1.Distance() != 1 {
		t.Fatalf("patch failed: parent=%d dist=%d", n1.Parent(), n1.Distance())
	}
}

func TestRuleR2PatchResetsOnBadParent(t *testing.T) {
	g := graph.Path(3)
	cfg := DefaultConfig(3)
	cfg.Repair = RepairPatch
	net := BuildNetwork(g, cfg, 1)
	n2 := NodesOf(net)[2]
	// Root mismatch with parent: must reset even under patch policy,
	// then adopt the better root via R1.
	n2.SetState(5, 1, 3, 0, 0, false)
	n2.SetView(1, View{Root: 1, Parent: 1, Distance: 0})
	n2.runTreeModule()
	if n2.Root() != 1 || n2.Parent() != 1 {
		t.Fatalf("root=%d parent=%d", n2.Root(), n2.Parent())
	}
}

func TestDistanceBoundCutsFakeRoot(t *testing.T) {
	// A forged root value smaller than every real ID dies out because the
	// distance bound refuses candidates beyond MaxDist. Use a ring where
	// every node initially believes in root -1 (simulated by large
	// distances); R1 must not adopt a candidate past the bound.
	g := graph.Ring(4)
	cfg := DefaultConfig(4)
	net := BuildNetwork(g, cfg, 1)
	n2 := NodesOf(net)[2]
	n2.SetState(2, 2, 0, 0, 0, false)
	// Neighbor 1 advertises an attractive root but an illegal distance.
	n2.SetView(1, View{Root: -5, Parent: 0, Distance: cfg.MaxDist + 1})
	n2.SetView(3, View{Root: 3, Parent: 3, Distance: 0})
	if n2.betterParent() {
		t.Fatal("candidate beyond MaxDist must not count as better parent")
	}
	n2.runTreeModule()
	if n2.Root() == -5 {
		t.Fatal("adopted a fake root past the distance bound")
	}
}

func TestDegreeModulePropagation(t *testing.T) {
	// On a preloaded path, corrupt the root's dmax; the root must restore
	// it from submax and flip its color.
	g := graph.Path(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	preload(t, g, net)
	n0 := NodesOf(net)[0]
	colorBefore := n0.Color()
	n0.SetState(0, 0, 0, 9, n0.submax, colorBefore)
	n0.runDegreeModule()
	if n0.Dmax() != 2 {
		t.Fatalf("root dmax=%d, want 2", n0.Dmax())
	}
	if n0.Color() == colorBefore {
		t.Fatal("root must flip color on dmax change")
	}
	// A child copies (dmax, color) from its parent's view.
	n1 := NodesOf(net)[1]
	n1.SetView(0, View{Root: 0, Parent: 0, Distance: 0, Dmax: 7, Color: true, Deg: 1})
	n1.runDegreeModule()
	if n1.Dmax() != 7 || !n1.Color() {
		t.Fatalf("child did not adopt parent dmax/color: %d %v", n1.Dmax(), n1.Color())
	}
}

func TestLocallyStabilizedGuards(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	preload(t, g, net)
	n1 := NodesOf(net)[1]
	if !n1.locallyStabilized() {
		t.Fatal("preloaded configuration must be locally stabilized")
	}
	// A dmax disagreement freezes the node.
	n1.SetView(0, View{Root: 0, Parent: 0, Distance: 0, Dmax: 9, Submax: 1, Deg: 1})
	if n1.locallyStabilized() {
		t.Fatal("dmax disagreement must break local stabilization")
	}
}

func TestStateBits(t *testing.T) {
	g := graph.Star(5)
	cfg := DefaultConfig(5)
	net := BuildNetwork(g, cfg, 1)
	hub := NodesOf(net)[0]
	want := (6 + 7*4) * cfg.WordBits
	if hub.StateBits() != want {
		t.Fatalf("StateBits=%d, want %d", hub.StateBits(), want)
	}
}

func TestFingerprintReflectsState(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	n1 := NodesOf(net)[1]
	f1 := n1.Fingerprint()
	n1.SetState(0, 0, 1, 2, 2, true)
	if n1.Fingerprint() == f1 {
		t.Fatal("fingerprint did not change with state")
	}
	f2 := n1.Fingerprint()
	n1.SetView(0, View{Root: 0, Parent: 0, Deg: 1})
	if n1.Fingerprint() == f2 {
		t.Fatal("fingerprint did not change with view")
	}
}

func TestCorruptRandomizes(t *testing.T) {
	g := graph.Ring(6)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	rng := rand.New(rand.NewSource(5))
	nd := NodesOf(net)[3]
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		nd.Corrupt(rng, 6)
		seen[nd.Fingerprint()] = true
		if nd.Root() < 0 || nd.Root() >= 6 {
			t.Fatalf("corrupted root %d out of ID space", nd.Root())
		}
	}
	if len(seen) < 5 {
		t.Fatalf("corruption not random enough: %d distinct states", len(seen))
	}
}

// Property: the memory stays within the paper's O(δ log n) bound with a
// small constant across random graphs (experiment E3).
func TestQuickMemoryWithinDeltaLogN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := graph.RandomGnp(n, 0.4, rng)
		net := BuildNetwork(g, DefaultConfig(n), seed)
		delta := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > delta {
				delta = d
			}
		}
		logN := 1
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		bound := 16 * (delta + 1) * logN // generous constant; the point is the shape
		return net.MaxStateBits() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetViewNonNeighborPanics(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NodesOf(net)[0].SetView(2, View{})
}

func TestExtractTreeErrors(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	nodes := NodesOf(net)
	// Clean start: three roots.
	if _, err := ExtractTree(g, nodes); err == nil {
		t.Fatal("multiple roots must fail")
	}
	// No root at all.
	nodes[0].SetState(0, 1, 1, 0, 0, false)
	nodes[1].SetState(0, 0, 1, 0, 0, false)
	nodes[2].SetState(0, 1, 2, 0, 0, false)
	if _, err := ExtractTree(g, nodes); err == nil {
		t.Fatal("rootless must fail")
	}
}

func TestCheckLegitimacyOnPreload(t *testing.T) {
	g := graph.Grid(3, 3)
	net := BuildNetwork(g, DefaultConfig(9), 1)
	preload(t, g, net)
	leg := CheckLegitimacy(g, NodesOf(net))
	if !leg.OK() {
		t.Fatalf("preload not legitimate: %+v", leg)
	}
	if leg.MaxDegree < 2 {
		t.Fatal("degree missing")
	}
}

func TestCheckLegitimacyDetectsStaleView(t *testing.T) {
	g := graph.Path(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	preload(t, g, net)
	NodesOf(net)[2].SetView(1, View{Root: 3, Parent: 3})
	leg := CheckLegitimacy(g, NodesOf(net))
	if leg.ViewsOK {
		t.Fatal("stale view not detected")
	}
	if leg.OK() {
		t.Fatal("legitimacy must fail")
	}
}

// TestCheckLegitimacyDetectsWrongDistance: one node's distance off by
// one, with every neighbor's view of it updated to match, fails
// DistancesOK alone. The Detail names the node and its depth.
func TestCheckLegitimacyDetectsWrongDistance(t *testing.T) {
	g := graph.RingWithChords(48, 24, rand.New(rand.NewSource(4)))
	net := BuildNetwork(g, DefaultConfig(g.N()), 1)
	tree := preload(t, g, net)
	nodes := NodesOf(net)
	want := CheckLegitimacy(g, nodes)
	if !want.OK() {
		t.Fatalf("preload not legitimate: %+v", want)
	}
	depth := tree.Depths()
	v := len(nodes) - 1
	nd := nodes[v]
	nd.SetState(nd.Root(), nd.Parent(), depth[v]+1, nd.Dmax(), nd.Submax(), nd.Color())
	for _, u := range g.Neighbors(v) {
		w, _ := nodes[u].ViewOf(v)
		w.Distance = depth[v] + 1
		nodes[u].SetView(v, w)
	}
	got := CheckLegitimacy(g, nodes)
	if got.DistancesOK {
		t.Fatalf("distance %d at depth %d not detected", depth[v]+1, depth[v])
	}
	if detail := fmt.Sprintf("node %d distance %d, depth %d", v, depth[v]+1, depth[v]); got.Detail != detail {
		t.Fatalf("Detail %q, want %q", got.Detail, detail)
	}
	want.DistancesOK, want.Detail = false, got.Detail
	if got != want {
		t.Fatalf("a wrong distance moved another component:\n got %+v\nwant %+v", got, want)
	}
}

func TestDisableReduction(t *testing.T) {
	// With reduction off, the protocol is a plain self-stabilizing BFS
	// tree: it must converge but never swap edges.
	g := graph.Wheel(8)
	cfg := DefaultConfig(8)
	cfg.DisableReduction = true
	net := BuildNetwork(g, cfg, 3)
	res := net.Run(sim.RunConfig{Scheduler: sim.NewSyncScheduler(), MaxRounds: 2000,
		QuiesceRounds: 56, ActiveKinds: ReductionKinds()})
	if !res.Converged {
		t.Fatal("BFS-only mode did not converge")
	}
	tree, err := ExtractTree(g, NodesOf(net))
	if err != nil {
		t.Fatal(err)
	}
	// BFS from the hub-adjacent min root: the wheel's BFS tree from node 0
	// is the star, degree 7 — reduction would have lowered it.
	if tree.MaxDegree() != 7 {
		t.Fatalf("degree=%d, want 7 (no reduction)", tree.MaxDegree())
	}
	m := net.Metrics()
	if m.SentByKind[KindSearch] != 0 || m.SentByKind[KindReverse] != 0 {
		t.Fatal("reduction messages sent in disabled mode")
	}
}

// TestSteadyGossipAllocsPerTick is the allocation gate for gossip: on a
// converged wheel with reduction off, a sync round is n InfoMsg ticks
// plus the deliveries of the previous round's gossip. sendInfo shares
// one boxed InfoMsg across the links and keeps it while the content
// repeats, so a steady round allocates nothing; boxing once per tick
// would cost n allocations, boxing at every Send Σdeg = 2m.
func TestSteadyGossipAllocsPerTick(t *testing.T) {
	g := graph.Wheel(16)
	cfg := DefaultConfig(g.N())
	cfg.DisableReduction = true
	net := BuildNetwork(g, cfg, 3)
	sched := sim.NewSyncScheduler()
	res := net.Run(sim.RunConfig{Scheduler: sched, MaxRounds: 2000,
		QuiesceRounds: 56, ActiveKinds: ReductionKinds()})
	if !res.Converged {
		t.Fatal("wheel did not converge")
	}
	allocs := testing.AllocsPerRun(20, func() { sched.RunRound(net) })
	if allocs > 0 {
		t.Fatalf("steady sync round allocates %.1f times for %d node ticks (2m = %d), want 0",
			allocs, g.N(), 2*g.M())
	}
}
