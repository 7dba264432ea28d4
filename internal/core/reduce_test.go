package core

import (
	"testing"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Fig. 5 replay: the two reversal orientations of the paper's
// Reverse_Orientation, driven end-to-end through real messages.

// TestReversalOrientationRemoveDirection exercises the Fig. 5(a) case:
// the removed edge's child end lies on the initiator's side, so the
// chain is launched toward the initiator (the paper's Remove direction).
func TestReversalOrientationRemoveDirection(t *testing.T) {
	// Tree: 0 root; children 1, 2; 3 under 1; 4 under 2; 5 under 1.
	// Non-tree edge {3,4}. Node 1 has degree 3 = dmax.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(1, 5)
	g.MustAddEdge(3, 4)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 1}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)

	// Initiator 3 searches for 4; cycle path 3-1-0-2, terminus 4.
	// Target w = 1 (deg 3); z = 0 is w's parent => child end is w:
	// the chain goes x(4) -> y(3) -> ... -> w(1), terminator 0.
	nodes[3].startSearch(net.Context(3), 4, -1, 0)
	drain(net, 10000)

	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(3, 4) || got.HasTreeEdge(0, 1) {
		t.Fatalf("expected swap {3,4} in / {0,1} out; edges=%v", got.Edges())
	}
	if d := got.Degree(1); d != 2 {
		t.Fatalf("node 1 degree %d, want 2", d)
	}
	// Orientation: 3 re-parented onto 4, 1 onto 3.
	if got.Parent(3) != 4 || got.Parent(1) != 3 {
		t.Fatalf("orientation wrong: parent(3)=%d parent(1)=%d", got.Parent(3), got.Parent(1))
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReversalOrientationBackDirection exercises the Fig. 5(b) case: the
// removed edge's child end lies on the terminus side, so the terminus
// applies the first hop locally and the chain walks back (the paper's
// Back direction).
func TestReversalOrientationBackDirection(t *testing.T) {
	// Chain tree 0-1-2-3 plus leaf 4 on 1 and chord {0,3}.
	// Node 1 has degree 3 = dmax; cycle of {0,3} is 0-1-2-3.
	// Target w=1, z=2 with parent(2)=1 => child end is z: terminus 3
	// re-parents locally onto 0, then 2 onto 3, dropping {1,2}.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	net := BuildNetwork(g, DefaultConfig(5), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 1}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)

	nodes[0].startSearch(net.Context(0), 3, -1, 0)
	drain(net, 10000)

	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(0, 3) || got.HasTreeEdge(1, 2) {
		t.Fatalf("expected swap {0,3} in / {1,2} out; edges=%v", got.Edges())
	}
	if got.Parent(3) != 0 || got.Parent(2) != 3 {
		t.Fatalf("orientation wrong: parent(3)=%d parent(2)=%d", got.Parent(3), got.Parent(2))
	}
	// Distances must be repaired along the reversed chain.
	if nodes[3].Distance() != 1 || nodes[2].Distance() != 2 {
		t.Fatalf("distances not updated: d3=%d d2=%d", nodes[3].Distance(), nodes[2].Distance())
	}
}

func TestReverseStaleChainAborts(t *testing.T) {
	g := graph.Ring(5)
	net := BuildNetwork(g, DefaultConfig(5), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 3}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	before := nodes[2].Parent()
	// Chain claiming node 2's parent is 3 (it is 1): must abort.
	deliver(net.Context(2), nodes[2], 1, ReverseMsg{
		Init:       graph.Edge{U: 0, V: 4},
		DegMax:     2,
		TargetNode: 3,
		TargetDeg:  2,
		Nodes:      []int{2, 3, 4},
		Dist:       2,
	})
	if nodes[2].Parent() != before {
		t.Fatal("stale chain applied")
	}
	if net.Pending() != 0 {
		t.Fatal("aborted chain must not forward")
	}
}

func TestReverseFinalHopValidatesTarget(t *testing.T) {
	// Final hop at the target with a changed degree must abort.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(1, 5)
	g.MustAddEdge(3, 4)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 1}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	// Directly hand node 1 the final hop with a wrong TargetDeg.
	deliver(net.Context(1), nodes[1], 3, ReverseMsg{
		Init:       graph.Edge{U: 3, V: 4},
		DegMax:     3,
		TargetNode: 1,
		TargetDeg:  9, // stale
		Nodes:      []int{1, 0},
		Dist:       3,
	})
	if nodes[1].Parent() != 0 {
		t.Fatal("stale final hop applied")
	}
}

func TestReverseFirstHopValidatesEdgeAndDegree(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	net := BuildNetwork(g, DefaultConfig(5), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 1}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	// First hop at node 0 (attachment) arriving from 3 (other endpoint of
	// init edge {0,3}) with a mismatched dmax: abort.
	deliver(net.Context(0), nodes[0], 3, ReverseMsg{
		Init:       graph.Edge{U: 3, V: 0}, // hypothetical reverse direction
		DegMax:     7,                      // wrong dmax
		TargetNode: 1,
		TargetDeg:  3,
		Nodes:      []int{0, 1, 2},
		Dist:       1,
	})
	if nodes[0].Parent() != 0 || net.Pending() != 0 {
		t.Fatal("first hop with wrong dmax must abort")
	}
}

func TestUpdateDistFloodsSubtree(t *testing.T) {
	g := graph.Path(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	// Parent 0 announces distance 5 to node 1: 1 adopts 6 and forwards.
	nodes[1].handleUpdateDist(net.Context(1), 0, UpdateDistMsg{Dist: 5})
	if nodes[1].Distance() != 6 {
		t.Fatalf("distance %d, want 6", nodes[1].Distance())
	}
	drain(net, 100)
	if nodes[2].Distance() != 7 || nodes[3].Distance() != 8 {
		t.Fatalf("flood failed: d2=%d d3=%d", nodes[2].Distance(), nodes[3].Distance())
	}
	// A non-parent announcement is ignored.
	nodes[1].handleUpdateDist(net.Context(1), 2, UpdateDistMsg{Dist: 50})
	if nodes[1].Distance() != 6 {
		t.Fatal("non-parent UpdateDist applied")
	}
}

func TestDeblockFloodReachesSubtreeAndSearches(t *testing.T) {
	// Star-of-cliques-like shape: blocking node 1 with subtree below.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 4) // non-tree edge inside subtree(1)
	g.MustAddEdge(0, 5)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 0}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	nodes[1].handleDeblock(net.Context(1), 0, DeblockMsg{Block: 1, TTL: 3})
	// The flood must reach children 2 and 3 and spawn deblock searches
	// for the non-tree edge {3,4} (from both endpoints).
	if net.PendingKind(KindDeblock) == 0 {
		t.Fatal("no deblock forwarded to children")
	}
	drain(net, 10000)
	m := net.Metrics()
	if m.SentByKind[KindSearch] == 0 {
		t.Fatal("deblock flood spawned no searches")
	}
}

func TestDeblockSuppressionWindow(t *testing.T) {
	g := graph.Path(3)
	net := BuildNetwork(g, DefaultConfig(3), 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)
	nodes[1].handleDeblock(net.Context(1), 0, DeblockMsg{Block: 7, TTL: 2})
	first := net.Metrics().SentByKind[KindDeblock]
	nodes[1].handleDeblock(net.Context(1), 0, DeblockMsg{Block: 7, TTL: 2})
	if net.Metrics().SentByKind[KindDeblock] != first {
		t.Fatal("repeat deblock for the same blocker not suppressed")
	}
	// TTL zero is dropped outright.
	nodes[1].handleDeblock(net.Context(1), 0, DeblockMsg{Block: 8, TTL: 0})
	if net.Metrics().SentByKind[KindDeblock] != first {
		t.Fatal("TTL-0 deblock forwarded")
	}
}

func TestDeblockEndToEndUnblocksImprovement(t *testing.T) {
	// Construct a blocked improvement: hub 0 with three arms, where the
	// improving edge for the hub has a blocking endpoint that can itself
	// be reduced. Let the full protocol run and require the hub's degree
	// to drop.
	//
	//      0 —— 1 —— 2
	//      |    |    |
	//      3    4    |
	//      |  (1-4)  |
	//      5 —— 6 ———+   edges {5,6},{6,2} close cycles
	g := graph.New(7)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(3, 5)
	g.MustAddEdge(5, 6)
	g.MustAddEdge(6, 2)
	net := BuildNetwork(g, DefaultConfig(7), 7)
	res := net.Run(sim.RunConfig{
		Scheduler:     sim.NewSyncScheduler(),
		MaxRounds:     20000,
		QuiesceRounds: 2*g.N() + 40,
		ActiveKinds:   ReductionKinds(),
	})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	leg := CheckLegitimacy(g, NodesOf(net))
	if !leg.OK() {
		t.Fatalf("not legitimate: %+v", leg)
	}
}
