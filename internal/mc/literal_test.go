package mc

import (
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/sim"
)

// literalNodes returns clean-start literal-exchange nodes over g.
func literalNodes(g *graph.Graph) []*core.Node {
	cfg := core.DefaultConfig(g.N())
	net := sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		return core.NewLiteralNode(id, nbrs, cfg)
	}, 1)
	return core.NodesOf(net)
}

// buildLitLegit returns literal-exchange nodes over g in a legitimate
// configuration.
func buildLitLegit(t *testing.T, g *graph.Graph) []*core.Node {
	t.Helper()
	nodes := literalNodes(g)
	if err := harness.Preload(g, nodes, core.DefaultConfig(g.N())); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestExploreLiteralLegitTriangle(t *testing.T) {
	// Triangle at the fixed point: no exchange can fire in any
	// interleaving, so tree validity holds in EVERY state (not just
	// quiescent ones) and roots stay in range.
	g := graph.Complete(3)
	nodes := buildLitLegit(t, g)
	res := Explore(g, nodes,
		Config{MaxStates: 30_000, MaxDepth: 12, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{TreeValidInvariant(g), RootBoundInvariant(3)}, nil)
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
	if res.States < 100 {
		t.Fatalf("explored only %d states", res.States)
	}
	if !res.FoundLegit {
		t.Fatal("initial legitimate state not found")
	}
}

func TestExploreLiteralQuiescentTreeOnChordedRing(t *testing.T) {
	// C4 plus chord from the fixed point: searches and deblock floods
	// flow through every interleaving. The literal choreography may
	// transiently break the tree mid-exchange, but whenever the network
	// drains (quiescent state) the structure must be a spanning tree,
	// and no node degree may ever exceed the fixed point's maximum.
	g := graph.Ring(4)
	g.MustAddEdge(0, 2)
	nodes := buildLitLegit(t, g)
	tree, err := core.ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	k := tree.MaxDegree()
	res := Explore(g, nodes,
		Config{MaxStates: 40_000, MaxDepth: 10, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{RootBoundInvariant(4), DegreeBoundInvariant(k)},
		[]Invariant{TreeValidInvariant(g)})
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
	if res.States < 100 {
		t.Fatalf("explored only %d states", res.States)
	}
}

func TestExploreLiteralFindsLegitFromCleanStart(t *testing.T) {
	g := graph.Path(3)
	nodes := literalNodes(g)
	res := Explore(g, nodes,
		Config{MaxStates: 150_000, MaxDepth: 20, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{RootBoundInvariant(3)}, nil)
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
	if !res.FoundLegit {
		t.Fatalf("no legitimate state within %d states (truncated=%v)", res.States, res.Truncated)
	}
}

func TestLitInvariantsFire(t *testing.T) {
	g := graph.Path(3)
	nodes := literalNodes(g)
	nodes[0].SetState(99, 0, 0, 1, 1, false)
	if err := RootBoundInvariant(3)(nodes); err == nil {
		t.Fatal("root bound did not fire")
	}
	nodes[0].SetState(0, 0, 0, 9, 9, false)
	nodes[1].SetState(0, 1, 0, 9, 9, false) // second self-root: no single tree
	if err := TreeValidInvariant(g)(nodes); err == nil {
		t.Fatal("tree-valid did not fire on a forest")
	}
}

func TestLitCloneIndependence(t *testing.T) {
	g := graph.Path(3)
	nodes := buildLitLegit(t, g)
	c := nodes[1].Clone()
	before := c.Fingerprint()
	// Mutating the original's state and views must not affect the clone.
	nodes[1].SetState(2, 2, 0, 5, 5, true)
	nodes[1].SetView(0, core.View{Root: 7})
	if c.Fingerprint() != before {
		t.Fatal("clone shares state or views with original")
	}
	if nodes[1].Fingerprint() == before {
		t.Fatal("mutation did not change the original's fingerprint")
	}
}
