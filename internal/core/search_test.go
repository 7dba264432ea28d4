package core

import (
	"testing"

	"mdst/internal/graph"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// drain delivers all pending messages repeatedly until the network is
// quiet or the step budget is exhausted (no ticks: only the injected
// traffic flows, keeping tests fully deterministic).
func drain(net *sim.Network, maxSteps int) int {
	steps := 0
	for steps < maxSteps {
		links := net.NonEmptyLinks()
		if len(links) == 0 {
			return steps
		}
		net.Deliver(links[0])
		steps++
	}
	return steps
}

func TestSearchTokenFindsCyclePath(t *testing.T) {
	// Theta graph: path 0-1-2-3 plus chord {0,3} and pendant 4 on 1.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	net := BuildNetwork(g, DefaultConfig(5), 1)
	preload(t, g, net)
	nodes := NodesOf(net)

	// The preloaded tree is the BFS tree from 0 (possibly FR-reduced);
	// rebuild state deterministically: parents 1->0, 2->1, 3->0?, ... To
	// keep the cycle well-defined, install an explicit chain tree.
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 1}})
	loadTree(g, net, tree)

	// Search for non-tree edge {0,3}: the fundamental cycle path must be
	// 0-1-2 (token at 3 = terminus).
	nodes[0].startSearch(net.Context(0), 3, -1, 0)
	// Drive until the terminus would act; intercept by checking that the
	// search triggered the expected classification: with dmax=3 (node 1
	// has degree 3) and endpoints deg(0)=1, deg(3)=1 < dmax-1, a reversal
	// must start targeting node 1.
	drain(net, 10000)
	extracted, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatalf("tree broken after search: %v", err)
	}
	// The improvement must have removed one edge at node 1 and added
	// {0,3}: degree of node 1 drops from 3 to 2.
	if d := extracted.Degree(1); d != 2 {
		t.Fatalf("node 1 degree %d, want 2 after improvement", d)
	}
	if !extracted.HasTreeEdge(0, 3) {
		t.Fatal("improving edge {0,3} not in tree")
	}
}

// chainTree builds a spanning tree from explicit (child, parent) pairs
// rooted at 0.
func chainTree(t *testing.T, g *graph.Graph, pairs [][2]int) *spanning.Tree {
	t.Helper()
	parents := make([]int, g.N())
	parents[0] = 0
	for _, p := range pairs {
		parents[p[0]] = p[1]
	}
	tr, err := spanning.NewFromParents(g, parents, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSearchGuardDropsWhenNotStabilized(t *testing.T) {
	g := graph.Ring(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	// Destabilize node 2 (dmax disagreement) and hand it a token.
	nodes[2].SetView(1, View{Root: 0, Parent: 0, Dmax: 9})
	msg := &SearchMsg{Init: graph.Edge{U: 1, V: 3}, Block: -1,
		Path: []PathEntry{{Node: 1, Deg: 2, Parent: 0, Cursor: 2}}}
	deliver(net.Context(2), nodes[2], 1, msg)
	if net.Pending() != 0 {
		t.Fatal("destabilized node must drop the token, not forward it")
	}
}

// A search from a node with no tree neighbors dies silently.
func TestStartSearchIsolatedInTree(t *testing.T) {
	g := graph.Ring(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	nodes := NodesOf(net)
	// Node 2 is its own root with no children in anyone's view.
	nodes[2].SetState(2, 2, 0, 3, 3, false)
	nodes[2].startSearch(net.Context(2), 3, -1, 0)
	if net.Pending() != 0 {
		t.Fatal("isolated node launched a token")
	}
}

func TestSearchBacktrackDiesAtInitiator(t *testing.T) {
	// Star graph: node 0 center. Non-tree edges absent (star tree = the
	// graph), so fake a search from 1 seeking a nonexistent endpoint to
	// force full exhaustion: token must die without residue.
	g := graph.Star(4)
	net := BuildNetwork(g, DefaultConfig(4), 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	// Craft a token at node 0 from 1 seeking node 99... IDs must be real
	// neighbors for sends; instead search for edge {1,3}: the tree path
	// is 1-0-3, terminus 3 — but make 3's handler reject by
	// destabilizing it, so the token backtracks and dies at the
	// initiator: actually a rejected terminus drops the token at 3.
	nodes[3].SetView(0, View{Root: 0, Parent: 0, Dmax: 9})
	nodes[1].startSearch(net.Context(1), 3, -1, 0)
	drain(net, 1000)
	if net.Pending() != 0 {
		t.Fatal("token leaked")
	}
	// Tree unchanged.
	tr, err := ExtractTree(g, nodes)
	if err != nil || tr.MaxDegree() != 3 {
		t.Fatalf("tree changed: %v", err)
	}
}

func TestSearchStaleTreeEdgeDropped(t *testing.T) {
	g := graph.Ring(5)
	net := BuildNetwork(g, DefaultConfig(5), 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	// Token claims to come from node 1 but records a path whose last
	// entry is node 3 (mismatch): must be dropped at the terminus.
	msg := &SearchMsg{Init: graph.Edge{U: 1, V: 2}, Block: -1,
		Path: []PathEntry{{Node: 1, Deg: 2, Parent: 0, Cursor: 3}, {Node: 3, Deg: 2, Parent: 2, Cursor: -1}}}
	deliver(net.Context(2), nodes[2], 1, msg)
	if net.Pending() != 0 {
		t.Fatal("stale token must be dropped")
	}
}

func TestSearchPeriodThrottles(t *testing.T) {
	g := graph.Ring(6) // ring tree: one non-tree edge
	cfg := DefaultConfig(6)
	cfg.SearchPeriod = 1000
	net := BuildNetwork(g, cfg, 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	// Find the initiator of the single non-tree edge.
	tr, _ := ExtractTree(g, nodes)
	nte := tr.NonTreeEdges()
	if len(nte) != 1 {
		t.Fatalf("ring tree must have one non-tree edge, got %v", nte)
	}
	init := nte[0].U
	ctx := net.Context(init)
	nodes[init].Tick(ctx)
	afterFirst := net.Metrics().SentByKind[KindSearch]
	nodes[init].Tick(ctx)
	nodes[init].Tick(ctx)
	if got := net.Metrics().SentByKind[KindSearch]; got != afterFirst {
		t.Fatalf("cooldown violated: %d searches after, %d before", got, afterFirst)
	}
}

func TestNoSearchBelowDegreeThree(t *testing.T) {
	// dmax = 2 (Hamiltonian path): searches are pointless and must not
	// be launched.
	g := graph.Ring(6)
	net := BuildNetwork(g, DefaultConfig(6), 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	for i, nd := range nodes {
		nd.Tick(net.Context(i))
	}
	if got := net.Metrics().SentByKind[KindSearch]; got != 0 {
		t.Fatalf("searches launched at dmax=2: %d", got)
	}
}
