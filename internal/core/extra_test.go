package core

import (
	"math/rand"
	"slices"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

func TestMessageSizes(t *testing.T) {
	if (InfoMsg{}).Size() != 7 {
		t.Fatal("InfoMsg size")
	}
	s := &SearchMsg{Path: make([]PathEntry, 3)}
	if s.Size() != 4*3+5 {
		t.Fatalf("SearchMsg size %d", s.Size())
	}
	r := ReverseMsg{Nodes: make([]int, 4)}
	if r.Size() != 4+7 {
		t.Fatalf("ReverseMsg size %d", r.Size())
	}
	if (DeblockMsg{}).Size() != 2 || (UpdateDistMsg{}).Size() != 1 {
		t.Fatal("small message sizes")
	}
	rm := RemoveMsg{Path: []int{1, 2, 3}}
	b := BackMsg{Path: []int{1, 2}}
	if rm.Size() != 11 || b.Size() != 6 {
		t.Fatalf("literal sizes: Remove %d, Back %d", rm.Size(), b.Size())
	}
	// Kinds are distinct.
	kinds := map[string]bool{}
	for _, k := range []string{(InfoMsg{}).Kind(), s.Kind(), r.Kind(),
		(DeblockMsg{}).Kind(), (UpdateDistMsg{}).Kind(), rm.Kind(), b.Kind()} {
		if kinds[k] {
			t.Fatalf("duplicate kind %s", k)
		}
		kinds[k] = true
	}
	want := []string{KindRemove, KindBack, KindReverse, KindUpdateDist}
	if got := ReductionKinds(); !slices.Equal(got, want) {
		t.Fatalf("ReductionKinds() = %v, want %v", got, want)
	}
}

func TestSearchMessageSizeBoundedByN(t *testing.T) {
	// After a full corrupted run, the largest search token must be at
	// most 4n+5 words (the paper's O(n log n) buffer bound).
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGnp(18, 0.3, rng)
	net := BuildNetwork(g, DefaultConfig(18), 3)
	for _, nd := range NodesOf(net) {
		nd.Corrupt(rng, 18)
	}
	runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	if max := net.Metrics().MaxMsgSize; max > 4*18+5 {
		t.Fatalf("message of %d words exceeds 4n+5", max)
	}
}

func TestDeblockTieBreakBlocksEqualPotentialSwap(t *testing.T) {
	// Deblock case where the rising endpoint (the search initiator, ID 4,
	// degree dmax-2) has a LARGER ID than the blocked node (ID 1): with
	// the tie-break enabled the exchange must not start; with it
	// disabled the reversal chain must launch.
	//
	// Tree chain 0-1-2-3-4 with leaf 5 on 2 (deg(2)=3=dmax); non-tree
	// edge {0,4}; blocker b=1 (deg 2 = dmax-1); the removed edge is
	// (1, successor 0) so endpoint 0 nets zero and only endpoint 4 rises.
	build := func(tieBreak bool) (*sim.Network, []*Node) {
		g := graph.New(6)
		g.MustAddEdge(0, 1)
		g.MustAddEdge(1, 2)
		g.MustAddEdge(2, 3)
		g.MustAddEdge(3, 4)
		g.MustAddEdge(2, 5)
		g.MustAddEdge(0, 4)
		cfg := DefaultConfig(6)
		cfg.DeblockTieBreak = tieBreak
		net := BuildNetwork(g, cfg, 1)
		tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 2}})
		loadTree(g, net, tree)
		return net, NodesOf(net)
	}
	// Search initiated at 4 for edge {4,0}: path 4-3-2-1, terminus 0.
	msg := &SearchMsg{
		Init:  graph.Edge{U: 4, V: 0},
		Block: 1,
		TTL:   3,
		Path: []PathEntry{
			{Node: 4, Deg: 1, Parent: 3, Cursor: 3},
			{Node: 3, Deg: 2, Parent: 2, Cursor: 2},
			{Node: 2, Deg: 3, Parent: 1, Cursor: 1},
			{Node: 1, Deg: 2, Parent: 0, Cursor: 0},
		},
	}

	netA, nodesA := build(true)
	nodesA[0].handleSearch(netA.Context(0), 1, msg)
	if netA.PendingKind(KindReverse) != 0 {
		t.Fatal("tie-break enabled: reversal must not start (rising ID 4 > blocker 1)")
	}

	// The terminus only reads a token, so both nodes may see this one.
	netB, nodesB := build(false)
	nodesB[0].handleSearch(netB.Context(0), 1, msg)
	if netB.PendingKind(KindReverse) == 0 {
		t.Fatal("tie-break disabled: reversal must start")
	}
	// Drain and verify the exchange: {0,4} in, {0,1} out, blocker reduced.
	drain(netB, 10000)
	tr, err := ExtractTree(netB.Graph(), nodesB)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasTreeEdge(0, 4) || tr.HasTreeEdge(0, 1) {
		t.Fatalf("swap wrong: %v", tr.Edges())
	}
	if tr.Degree(1) != 1 {
		t.Fatalf("blocker degree %d, want 1", tr.Degree(1))
	}
}

func TestDeblockRecursionRespectsTTL(t *testing.T) {
	// A deblock search whose endpoints are also blocking triggers a
	// recursive deblock with TTL-1; at TTL 0 nothing is sent.
	g := graph.Ring(6)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	// Fake a deblock search arriving at terminus 5 with blocking
	// endpoints: endpoints 0 and 5 with deg == dmax-1. The preloaded ring
	// has dmax=2, so endpoints deg 1 = dmax-1: blocking.
	msg := &SearchMsg{
		Init:  graph.Edge{U: 0, V: 5},
		Block: 2,
		TTL:   0, // expired
		Path: []PathEntry{
			{Node: 0, Deg: 1, Parent: 0, Cursor: 1},
			{Node: 1, Deg: 2, Parent: 0, Cursor: 2},
			{Node: 2, Deg: 2, Parent: 1, Cursor: 3},
			{Node: 3, Deg: 2, Parent: 2, Cursor: 4},
			{Node: 4, Deg: 2, Parent: 3, Cursor: 5},
		},
	}
	nodes[5].handleSearch(net.Context(5), 4, msg)
	if net.PendingKind(KindDeblock) != 0 {
		t.Fatal("TTL-0 deblock search must not recurse")
	}
}

func TestDegreeModuleWithMultipleRoots(t *testing.T) {
	// During stabilization several roots coexist; each computes dmax from
	// its own fragment without panicking or cross-talk.
	g := graph.Path(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	nodes := NodesOf(net)
	// Two fragments: 0<-1, 2<-3 (roots 0 and 2).
	nodes[0].SetState(0, 0, 0, 0, 0, false)
	nodes[1].SetState(0, 0, 1, 0, 0, false)
	nodes[2].SetState(2, 2, 0, 0, 0, false)
	nodes[3].SetState(2, 2, 1, 0, 0, false)
	nodes[0].SetView(1, View{Root: 0, Parent: 0, Distance: 1, Deg: 1, Submax: 1})
	nodes[1].SetView(0, View{Root: 0, Parent: 0, Distance: 0, Deg: 1, Submax: 1})
	nodes[1].SetView(2, View{Root: 2, Parent: 2, Distance: 0, Deg: 1, Submax: 1})
	nodes[2].SetView(1, View{Root: 0, Parent: 0, Distance: 1, Deg: 1, Submax: 1})
	nodes[2].SetView(3, View{Root: 2, Parent: 2, Distance: 1, Deg: 1, Submax: 1})
	nodes[3].SetView(2, View{Root: 2, Parent: 2, Distance: 0, Deg: 1, Submax: 1})
	for _, nd := range nodes {
		nd.runDegreeModule()
	}
	if nodes[0].Dmax() < 1 || nodes[2].Dmax() < 1 {
		t.Fatal("fragment roots did not compute dmax")
	}
}

func TestInfoMsgRefreshesViewAndRunsRules(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	n2 := NodesOf(net)[2]
	// Node 2 starts as its own root; learning node 1's adoption of root 0
	// via InfoMsg must trigger R1.
	n2.handleInfo(1, InfoMsg{Root: 0, Parent: 0, Distance: 1, Deg: 1})
	if n2.Root() != 0 || n2.Parent() != 1 || n2.Distance() != 2 {
		t.Fatalf("R1 after InfoMsg: root=%d parent=%d dist=%d",
			n2.Root(), n2.Parent(), n2.Distance())
	}
}

func TestCorruptedViewsHealViaGossip(t *testing.T) {
	g := graph.Ring(6)
	net := BuildNetwork(g, DefaultConfig(6), 2)
	preload(t, g, net)
	// Corrupt only the VIEWS of one node (its own variables stay good).
	rng := rand.New(rand.NewSource(9))
	nd := NodesOf(net)[3]
	for _, u := range g.Neighbors(3) {
		nd.SetView(u, View{Root: rng.Intn(6), Parent: rng.Intn(6),
			Distance: rng.Intn(12), Dmax: rng.Intn(6)})
	}
	res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if leg := CheckLegitimacy(g, NodesOf(net)); !leg.OK() {
		t.Fatalf("views did not heal: %+v", leg)
	}
}

// The word width of StateBits is bitsFor(MaxDist), so one node's state
// grows with the network size its Config is built for.
func TestWordBitsScalesWithN(t *testing.T) {
	small := NewNode(0, []int{1}, DefaultConfig(8)).StateBits()
	large := NewNode(0, []int{1}, DefaultConfig(1<<16)).StateBits()
	if small >= large {
		t.Fatalf("StateBits: %d at n=8 vs %d at n=65536", small, large)
	}
}

func TestAccessors(t *testing.T) {
	g := graph.Path(2)
	net := BuildNetwork(g, DefaultConfig(2), 1)
	nd := NodesOf(net)[1]
	if nd.ID() != 1 || nd.Root() != 1 || nd.Parent() != 1 || nd.Distance() != 0 {
		t.Fatal("fresh node accessors")
	}
	if nd.Dmax() != 0 || nd.Color() {
		t.Fatal("fresh dmax/color")
	}
}

func TestStatsCountExchanges(t *testing.T) {
	g := graph.Wheel(8)
	net := BuildNetwork(g, DefaultConfig(8), 5)
	runToQuiescence(net, g, sim.NewSyncScheduler(), 0)
	stats := AggregateStats(NodesOf(net))
	if stats.SearchesLaunched == 0 || stats.CyclesClassified == 0 {
		t.Fatalf("search counters empty: %+v", stats)
	}
	// The wheel's star tree (degree 7) reduces to degree 2: at least 5
	// completed exchanges (some may be applied locally at the decider and
	// bypass handleReverse, so this is a lower-bound check on activity).
	tree, err := ExtractTree(g, NodesOf(net))
	if err != nil || tree.MaxDegree() != 2 {
		t.Fatalf("wheel not reduced: %v", err)
	}
	if stats.ExchangesApplied == 0 {
		t.Fatalf("no exchanges recorded: %+v", stats)
	}
}
