package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Figure 5 replay for the literal exchange: the Remove continuation
// (a), the Back retrace (b), and the apex case (interpretation I1),
// driven end-to-end through real messages with ticks suppressed.

// caseAFixture builds: ring 0-1-2-3-4 plus pendant {2,5}; tree is the
// chain 0-1-2-3-4 with 5 under 2, so deg(2) = 3 = dmax and the cycle of
// the non-tree edge {0,4} is 0-1-2-3-4. The target node w = 2 has its
// path predecessor as parent: Figure 5(a).
func caseAFixture(t *testing.T) (*graph.Graph, *sim.Network) {
	t.Helper()
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(2, 5)
	net := buildNet(g, DefaultConfig(6), 1, NewLiteralNode)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 2}})
	loadTree(g, net, tree)
	return g, net
}

func TestChoreoCaseARemoveContinuation(t *testing.T) {
	g, net := caseAFixture(t)
	nodes := NodesOf(net)

	nodes[0].startSearch(net.Context(0), 4, -1, 0)
	drain(net, 10000)

	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(0, 4) || got.HasTreeEdge(1, 2) {
		t.Fatalf("expected swap {0,4} in / {1,2} out; edges=%v", got.Edges())
	}
	if d := got.Degree(2); d != 2 {
		t.Fatalf("node 2 degree %d, want 2", d)
	}
	// Reorientation: the segment w..x flipped toward the init edge.
	if got.Parent(2) != 3 || got.Parent(3) != 4 || got.Parent(4) != 0 {
		t.Fatalf("orientation wrong: p(2)=%d p(3)=%d p(4)=%d",
			got.Parent(2), got.Parent(3), got.Parent(4))
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	st := AggregateStats(nodes)
	if st.ExchangesComplete != 1 || st.BacksStarted != 0 {
		t.Fatalf("stats: %+v (want one completed exchange via Remove)", st)
	}
	// The color flip at the removal site (Figure 2, line 5).
	if !nodes[2].Color() {
		t.Fatal("node 2 did not flip its color at the removal")
	}
}

// caseBFixture builds: cycle 1-2-3-4 with chord edge {1,4} non-tree,
// pendant 0 on 4 carrying the root, pendants 5 and 6 on 2 so that
// deg(2) = 4 = dmax. The tree is rooted at 0 through 4, so the target
// node w = 2 has its path successor as parent: Figure 5(b).
func caseBFixture(t *testing.T) (*graph.Graph, *sim.Network) {
	t.Helper()
	g := graph.New(7)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(2, 5)
	g.MustAddEdge(2, 6)
	net := buildNet(g, DefaultConfig(7), 1, NewLiteralNode)
	tree := chainTree(t, g, [][2]int{{4, 0}, {3, 4}, {2, 3}, {1, 2}, {5, 2}, {6, 2}})
	loadTree(g, net, tree)
	return g, net
}

func TestChoreoCaseBBackRetrace(t *testing.T) {
	g, net := caseBFixture(t)
	nodes := NodesOf(net)

	nodes[1].startSearch(net.Context(1), 4, -1, 0)
	drain(net, 10000)

	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(1, 4) || got.HasTreeEdge(2, 3) {
		t.Fatalf("expected swap {1,4} in / {2,3} out; edges=%v", got.Edges())
	}
	if d := got.Degree(2); d != 3 {
		t.Fatalf("node 2 degree %d, want 3", d)
	}
	// The prefix retrace: w re-parented onto its predecessor, the
	// initiator onto the terminus.
	if got.Parent(2) != 1 || got.Parent(1) != 4 {
		t.Fatalf("orientation wrong: p(2)=%d p(1)=%d", got.Parent(2), got.Parent(1))
	}
	st := AggregateStats(nodes)
	if st.BacksStarted != 1 || st.ExchangesComplete != 1 {
		t.Fatalf("stats: %+v (want one completed exchange via Back)", st)
	}
	if !nodes[2].Color() {
		t.Fatal("node 2 did not flip its color at the removal")
	}
}

// apexFixture builds a 5-cycle 1-2-3-4-5 with the root 0 hanging off 2
// and a pendant 6 on 2, so w = 2 is the apex of the fundamental cycle of
// {1,5}: its parent (0) is off the cycle.
func apexFixture(t *testing.T) (*graph.Graph, *sim.Network) {
	t.Helper()
	g := graph.New(7)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(1, 5)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 6)
	net := buildNet(g, DefaultConfig(7), 1, NewLiteralNode)
	tree := chainTree(t, g, [][2]int{{2, 0}, {1, 2}, {3, 2}, {4, 3}, {5, 4}, {6, 2}})
	loadTree(g, net, tree)
	return g, net
}

func TestChoreoApexCase(t *testing.T) {
	g, net := apexFixture(t)
	nodes := NodesOf(net)

	nodes[1].startSearch(net.Context(1), 5, -1, 0)
	drain(net, 10000)

	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(1, 5) || got.HasTreeEdge(2, 3) {
		t.Fatalf("expected swap {1,5} in / {2,3} out; edges=%v", got.Edges())
	}
	if d := got.Degree(2); d != 3 {
		t.Fatalf("node 2 degree %d, want 3", d)
	}
	// The apex keeps its parent; the detached segment flipped.
	if got.Parent(2) != 0 || got.Parent(3) != 4 || got.Parent(4) != 5 || got.Parent(5) != 1 {
		t.Fatalf("orientation wrong: p(2)=%d p(3)=%d p(4)=%d p(5)=%d",
			got.Parent(2), got.Parent(3), got.Parent(4), got.Parent(5))
	}
}

// A Remove whose decision context went stale (the target's degree
// changed) must be discarded at the target, leaving the tree unchanged.
func TestChoreoStaleTargetDegreeAborts(t *testing.T) {
	g, net := caseAFixture(t)
	nodes := NodesOf(net)

	msg := RemoveMsg{
		Init:   graph.Edge{U: 0, V: 4},
		DegMax: 3,
		Target: graph.Edge{U: 2, V: 3},
		WDeg:   2, // stale: node 2 actually has tree degree 3
		Path:   []int{0, 1, 2, 3, 4},
		Pos:    2,
	}
	before, _ := ExtractTree(g, nodes)
	nodes[2].handleRemove(net.Context(2), 1, msg)
	drain(net, 1000)
	after, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if before.Parent(v) != after.Parent(v) {
			t.Fatalf("tree changed despite stale Remove: parent(%d) %d -> %d",
				v, before.Parent(v), after.Parent(v))
		}
	}
	if st := nodes[2].NodeStats(); st.ChoreoAborted != 1 {
		t.Fatalf("aborts = %d, want 1", st.ChoreoAborted)
	}
}

// A reorientation hop arriving at a node that already re-parented away
// from the sender aborts without touching the node.
func TestChoreoReorientParentMismatchAborts(t *testing.T) {
	g, net := caseAFixture(t)
	nodes := NodesOf(net)

	msg := RemoveMsg{
		Init:     graph.Edge{U: 0, V: 4},
		DegMax:   3,
		Target:   graph.Edge{U: 2, V: 3},
		WDeg:     3,
		Path:     []int{0, 1, 2, 3, 4},
		Pos:      3,
		Reorient: true,
	}
	// Node 3's parent is 2, but the hop claims to come from 1.
	nodes[3].handleRemove(net.Context(3), 1, msg)
	if nodes[3].Parent() != 2 {
		t.Fatalf("node 3 re-parented to %d on a mismatched hop", nodes[3].Parent())
	}
	if st := nodes[3].NodeStats(); st.ChoreoAborted != 1 {
		t.Fatalf("aborts = %d, want 1", st.ChoreoAborted)
	}
	_ = g
}

// The routing phase forwards across a concurrently deleted edge ("as if
// the deleted edge would be still alive") and the exchange still
// completes when the target context is intact.
func TestChoreoRoutingSurvivesDeletedEdge(t *testing.T) {
	g, net := caseAFixture(t)
	nodes := NodesOf(net)

	// Route a Remove through node 1 whose path edge {1,2} has "already
	// been deleted": flip node 1's view so {1,2} is not a tree edge from
	// its perspective (parent(2)=3 already applied elsewhere).
	nodes[1].SetView(2, View{Root: 0, Parent: 3, Distance: 2, Dmax: 3, Submax: 3, Deg: 3})
	msg := RemoveMsg{
		Init:   graph.Edge{U: 0, V: 4},
		DegMax: 3,
		Target: graph.Edge{U: 2, V: 3},
		WDeg:   3,
		Path:   []int{0, 1, 2, 3, 4},
		Pos:    1,
	}
	nodes[1].handleRemove(net.Context(1), 0, msg)
	drain(net, 10000)
	got, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTreeEdge(0, 4) || got.HasTreeEdge(1, 2) {
		t.Fatalf("exchange did not complete: edges=%v", got.Edges())
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
		net := buildNet(g, DefaultConfig(n), seed, NewLiteralNode)
		corruptAll(net, rng)
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

// Message length property: a Remove carrying a cycle of c nodes is
// O(c) words — the paper's O(n log n)-bit buffer bound.
func TestQuickRemoveSizeLinearInPath(t *testing.T) {
	f := func(k uint8) bool {
		c := int(k%64) + 2
		m := RemoveMsg{Path: make([]int, c)}
		return m.Size() == c+8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sentMsg is one send captured from a handler.
type sentMsg struct {
	to  int
	msg sim.Message
}

// scanRuleSends classifies a hand-built Search terminus and returns the
// terminus and what it sent. x = 4 ends a plain Search for the non-tree
// edge {1, 4} whose recorded path 1-2-3 reads dmax = 3 at the initiator
// y = 1 (the min-ID maximum-degree node on it) and at the interior node
// 2, while x's view of y reads degree 1 < dmax-1.
func scanRuleSends(newNode func(int, []int, Config) *Node) (*Node, []sentMsg) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(1, 4)
	x := newNode(4, g.Neighbors(4), DefaultConfig(5))
	x.SetState(0, 3, 4, 3, 3, false)
	x.SetView(1, View{Root: 0, Parent: 0, Distance: 1, Dmax: 3, Submax: 3, Deg: 1})
	x.SetView(3, View{Root: 0, Parent: 2, Distance: 3, Dmax: 3, Submax: 3, Deg: 2})
	var sent []sentMsg
	ctx := recordingContext(4, g.Neighbors(4), &sent)
	x.actionOnCycle(ctx, &SearchMsg{
		Init:  graph.Edge{U: 1, V: 4},
		Block: -1,
		Path: []PathEntry{
			{Node: 1, Deg: 3, Parent: 0, Cursor: 2},
			{Node: 2, Deg: 3, Parent: 1, Cursor: 3},
			{Node: 3, Deg: 2, Parent: 2, Cursor: 4},
		},
	})
	return x, sent
}

// The chain exchange picks the min-ID maximum-degree node over the whole
// recorded path; when that is the initiator it does nothing.
func TestScanRuleChainSkipsInitiatorPick(t *testing.T) {
	x, sent := scanRuleSends(NewNode)
	if x.NodeStats().CyclesClassified != 1 {
		t.Fatal("cycle not classified")
	}
	if len(sent) != 0 || x.Parent() != 3 {
		t.Fatalf("chain exchange acted: sent %v, parent %d", sent, x.Parent())
	}
}

// The literal exchange picks among interior nodes only, so it targets
// the interior maximum-degree node: a Remove to the initiator whose
// target edge is {2, 3}.
func TestScanRuleLiteralTargetsInterior(t *testing.T) {
	_, sent := scanRuleSends(NewLiteralNode)
	if len(sent) != 1 {
		t.Fatalf("sent %v, want one Remove", sent)
	}
	rm, ok := sent[0].msg.(RemoveMsg)
	if !ok || sent[0].to != 1 || rm.Target != (graph.Edge{U: 2, V: 3}) {
		t.Fatalf("sent %#v, want a Remove targeting {2,3} to 1", sent[0])
	}
}
