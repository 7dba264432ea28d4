package spanning

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/graph"
)

func mustTree(t *testing.T, g *graph.Graph, parent []int, root int) *Tree {
	t.Helper()
	tr, err := NewFromParents(g, parent, root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewFromParentsValid(t *testing.T) {
	g := graph.Path(4)
	tr := mustTree(t, g, []int{0, 0, 1, 2}, 0)
	if tr.Root() != 0 || tr.Parent(3) != 2 {
		t.Fatal("tree structure wrong")
	}
}

func TestNewFromParentsRejectsNonEdgeParent(t *testing.T) {
	g := graph.Path(4)
	if _, err := NewFromParents(g, []int{0, 0, 0, 2}, 0); err == nil {
		t.Fatal("parent edge {2,0} not in path graph; should fail")
	}
}

func TestNewFromParentsRejectsCycle(t *testing.T) {
	g := graph.Ring(4)
	// 1<->2 parent cycle, disconnected from root 0.
	if _, err := NewFromParents(g, []int{0, 2, 1, 0}, 0); err == nil {
		t.Fatal("parent cycle accepted")
	}
}

func TestNewFromParentsRejectsBadRoot(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewFromParents(g, []int{1, 1, 1}, 0); err == nil {
		t.Fatal("parent[root] != root accepted")
	}
	if _, err := NewFromParents(g, []int{0, 0}, 0); err == nil {
		t.Fatal("short parent array accepted")
	}
	if _, err := NewFromParents(g, []int{0, 0, 1}, 5); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestDegreesAndMax(t *testing.T) {
	g := graph.Star(5)
	tr := mustTree(t, g, []int{0, 0, 0, 0, 0}, 0)
	deg := tr.Degrees()
	if deg[0] != 4 {
		t.Fatalf("hub degree %d, want 4", deg[0])
	}
	for v := 1; v < 5; v++ {
		if deg[v] != 1 {
			t.Fatalf("leaf degree %d", deg[v])
		}
	}
	if tr.MaxDegree() != 4 {
		t.Fatal("MaxDegree wrong")
	}
	if tr.Degree(0) != 4 || tr.Degree(2) != 1 {
		t.Fatal("single-node Degree wrong")
	}
}

func TestHasTreeEdgeAndEdges(t *testing.T) {
	g := graph.Ring(4)
	tr := mustTree(t, g, []int{0, 0, 1, 0}, 0)
	if !tr.HasTreeEdge(0, 1) || !tr.HasTreeEdge(2, 1) || !tr.HasTreeEdge(3, 0) {
		t.Fatal("missing tree edges")
	}
	if tr.HasTreeEdge(2, 3) {
		t.Fatal("{2,3} should be non-tree")
	}
	if len(tr.Edges()) != 3 {
		t.Fatal("edge count")
	}
	nte := tr.NonTreeEdges()
	if len(nte) != 1 || nte[0] != (graph.Edge{U: 2, V: 3}) {
		t.Fatalf("non-tree edges %v", nte)
	}
}

func TestChildrenSubtreeDepth(t *testing.T) {
	g := graph.Path(5)
	tr := mustTree(t, g, []int{0, 0, 1, 2, 3}, 0)
	if got := tr.Children(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("children(1)=%v", got)
	}
	sub := tr.Subtree(2)
	if len(sub) != 3 || sub[0] != 2 || sub[2] != 4 {
		t.Fatalf("subtree(2)=%v", sub)
	}
	if !tr.InSubtree(2, 4) || tr.InSubtree(2, 1) {
		t.Fatal("InSubtree wrong")
	}
	if tr.Depths()[4] != 4 {
		t.Fatal("depth wrong")
	}
}

func TestPathBetween(t *testing.T) {
	// Tree: 0 root, children 1 and 2; 3 under 1; 4 under 2.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 4) // extra non-tree edge
	tr := mustTree(t, g, []int{0, 0, 0, 1, 2}, 0)

	p := tr.PathBetween(3, 4)
	want := []int{3, 1, 0, 2, 4}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
	// Path where one endpoint is an ancestor of the other.
	p = tr.PathBetween(0, 3)
	if len(p) != 3 || p[0] != 0 || p[2] != 3 {
		t.Fatalf("ancestor path %v", p)
	}
	// Self path.
	if p := tr.PathBetween(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path %v", p)
	}
}

func TestFundamentalCycle(t *testing.T) {
	g := graph.Ring(5)
	tr := mustTree(t, g, []int{0, 0, 1, 2, 3}, 0)
	cyc := tr.FundamentalCycle(graph.Edge{U: 0, V: 4})
	if len(cyc) != 5 || cyc[0] != 0 || cyc[4] != 4 {
		t.Fatalf("cycle %v", cyc)
	}
}

func TestFundamentalCyclePanics(t *testing.T) {
	g := graph.Ring(4)
	tr := mustTree(t, g, []int{0, 0, 1, 0}, 0)
	for _, e := range []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FundamentalCycle(%v) should panic", e)
				}
			}()
			tr.FundamentalCycle(e)
		}()
	}
}

func TestSwapBasic(t *testing.T) {
	g := graph.Ring(5)
	tr := mustTree(t, g, []int{0, 0, 1, 2, 3}, 0)
	// Cycle of {0,4} is the whole ring; remove {1,2}.
	if err := tr.Swap(graph.Edge{U: 0, V: 4}, graph.Edge{U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.HasTreeEdge(0, 4) || tr.HasTreeEdge(1, 2) {
		t.Fatal("swap did not exchange edges")
	}
	if tr.Root() != 0 || tr.Parent(0) != 0 {
		t.Fatal("root moved")
	}
}

func TestSwapErrors(t *testing.T) {
	g := graph.Ring(5)
	tr := mustTree(t, g, []int{0, 0, 1, 2, 3}, 0)
	// add must be non-tree.
	if err := tr.Swap(graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}); err == nil {
		t.Fatal("tree edge accepted as add")
	}
	// rm must be a tree edge.
	if err := tr.Swap(graph.Edge{U: 0, V: 4}, graph.Edge{U: 0, V: 4}); err == nil {
		t.Fatal("non-tree edge accepted as rm")
	}
}

func TestSwapOffCycleRejected(t *testing.T) {
	// Graph: triangle 0-1-2 plus pendant 3 on 0.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	tr := mustTree(t, g, []int{0, 0, 1, 0}, 0)
	// Cycle of {0,2} is 0-1-2; edge {0,3} is not on it.
	if err := tr.Swap(graph.Edge{U: 0, V: 2}, graph.Edge{U: 0, V: 3}); err == nil {
		t.Fatal("off-cycle rm accepted; would disconnect tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree corrupted by rejected swap: %v", err)
	}
}

func TestSwapBothOrientations(t *testing.T) {
	// Exercise the Fig. 5 (a)/(b) cases: removed edge child on either side
	// of the attachment endpoint.
	g := graph.Ring(6)
	// Tree rooted at 0: chain 0-1-2-3-4-5, non-tree edge {0,5}.
	tr := mustTree(t, g, []int{0, 0, 1, 2, 3, 4}, 0)
	// Remove {3,4}: child side contains 4,5 -> attach at 5 (Fig 5b Back).
	c := tr.Clone()
	if err := c.Swap(graph.Edge{U: 0, V: 5}, graph.Edge{U: 3, V: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Parent(5) != 0 || c.Parent(4) != 5 {
		t.Fatalf("reversal wrong: parent(5)=%d parent(4)=%d", c.Parent(5), c.Parent(4))
	}
	// Remove {0,1}: child side contains 1..5 including both endpoints of
	// add... child of {0,1} is 1; subtree(1) contains 5. attach=5.
	c2 := tr.Clone()
	if err := c2.Swap(graph.Edge{U: 0, V: 5}, graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c2.HasTreeEdge(0, 5) || c2.HasTreeEdge(0, 1) {
		t.Fatal("swap edges wrong")
	}
}

func TestBFSTree(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := BFSTree(g, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depths()[8]; d != 4 {
		t.Fatalf("BFS depth of corner %d, want 4", d)
	}
}

func TestDFSTree(t *testing.T) {
	g := graph.Complete(6)
	tr := DFSTree(g, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges()) != 5 {
		t.Fatal("edge count")
	}
}

func TestRandomTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomGnp(25, 0.2, rng)
	for i := 0; i < 10; i++ {
		tr := RandomTree(g, 0, rng)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomTreeUniformish(t *testing.T) {
	// On C4 there are exactly 4 spanning trees; Wilson should hit all.
	rng := rand.New(rand.NewSource(11))
	g := graph.Ring(4)
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		tr := RandomTree(g, 0, rng)
		key := ""
		for _, e := range tr.Edges() {
			key += e.String()
		}
		seen[key] = true
	}
	if len(seen) != 4 {
		t.Fatalf("saw %d distinct trees of C4, want 4", len(seen))
	}
}

func TestWorstDegreeTree(t *testing.T) {
	g := graph.Wheel(8)
	tr := WorstDegreeTree(g, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hub should absorb all nodes: degree 7.
	if tr.Degree(0) != 7 {
		t.Fatalf("hub tree degree %d, want 7", tr.Degree(0))
	}
}

func TestCompareDegreeSequences(t *testing.T) {
	if CompareDegreeSequences([]int{5, 2}, []int{4, 3}) != 1 {
		t.Fatal("compare")
	}
	if CompareDegreeSequences([]int{4, 3}, []int{5, 2}) != -1 {
		t.Fatal("compare")
	}
	if CompareDegreeSequences([]int{3, 3}, []int{3, 3}) != 0 {
		t.Fatal("compare")
	}
	if CompareDegreeSequences([]int{3}, []int{3, 1}) != -1 {
		t.Fatal("prefix compare")
	}
}

func TestDegreeSequenceSorted(t *testing.T) {
	g := graph.Star(5)
	tr := mustTree(t, g, []int{0, 0, 0, 0, 0}, 0)
	seq := tr.DegreeSequence()
	if seq[0] != 4 || seq[4] != 1 {
		t.Fatalf("sequence %v", seq)
	}
}

// Property: swap preserves the spanning-tree invariants and exchanges
// exactly the intended pair of edges.
func TestQuickSwapPreservesTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := graph.RandomGnp(n, 0.3, rng)
		tr := RandomTree(g, rng.Intn(n), rng)
		nte := tr.NonTreeEdges()
		if len(nte) == 0 {
			return true
		}
		add := nte[rng.Intn(len(nte))]
		cyc := tr.FundamentalCycle(add)
		i := rng.Intn(len(cyc) - 1)
		rm := graph.Edge{U: cyc[i], V: cyc[i+1]}
		before := tr.EdgeSet()
		if err := tr.Swap(add, rm); err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		after := tr.EdgeSet()
		if !after[add.Normalize()] || after[rm.Normalize()] {
			return false
		}
		// All other edges unchanged.
		diff := 0
		for e := range before {
			if !after[e] {
				diff++
			}
		}
		return diff == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS/DFS/random trees are always valid spanning trees with
// n-1 edges, and PathBetween endpoints match.
func TestQuickTreeConstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := graph.RandomGnp(n, 0.25, rng)
		root := rng.Intn(n)
		for _, tr := range []*Tree{BFSTree(g, root), DFSTree(g, root), RandomTree(g, root, rng)} {
			if tr.Validate() != nil || len(tr.Edges()) != n-1 {
				return false
			}
			u, v := rng.Intn(n), rng.Intn(n)
			p := tr.PathBetween(u, v)
			if p[0] != u || p[len(p)-1] != v {
				return false
			}
			// Consecutive path nodes are tree edges.
			for i := 0; i+1 < len(p); i++ {
				if !tr.HasTreeEdge(p[i], p[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of tree degrees is 2(n-1).
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.RandomGnp(n, 0.3, rng)
		tr := RandomTree(g, 0, rng)
		sum := 0
		for _, d := range tr.Degrees() {
			sum += d
		}
		return sum == 2*(n-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// climbDepth is the reference depth: the parent pointers from v to the
// root, climbed one at a time.
func climbDepth(tr *Tree, v int) int {
	d := 0
	for ; v != tr.Root(); v = tr.Parent(v) {
		d++
	}
	return d
}

// checkDepths compares Depths with climbDepth on every node.
func checkDepths(t *testing.T, name string, tr *Tree) {
	t.Helper()
	depth := tr.Depths()
	if len(depth) != tr.Graph().N() {
		t.Fatalf("%s: %d depths for %d nodes", name, len(depth), tr.Graph().N())
	}
	for v, d := range depth {
		if want := climbDepth(tr, v); d != want {
			t.Fatalf("%s: Depths()[%d] = %d, parent climb %d", name, v, d, want)
		}
	}
}

// TestDepthsMatchParentClimb checks the one-pass depths against parent
// climbs on BFS, DFS, Wilson-random and worst-degree trees over gnp,
// grid and ring+chords draws, and on a random tree after each of a
// sequence of valid swaps (which rewrite parent chains).
func TestDepthsMatchParentClimb(t *testing.T) {
	for _, fam := range []string{"gnp", "grid", "ring+chords"} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := graph.MustFamily(fam).Build(40, rng)
			root := rng.Intn(g.N())
			trees := []struct {
				kind string
				tr   *Tree
			}{
				{"bfs", BFSTree(g, root)},
				{"dfs", DFSTree(g, root)},
				{"wilson", RandomTree(g, root, rng)},
				{"worst-degree", WorstDegreeTree(g, root)},
			}
			for _, c := range trees {
				checkDepths(t, fam+"/"+c.kind, c.tr)
			}
			tr := RandomTree(g, root, rng)
			for i := 0; i < 20; i++ {
				nte := tr.NonTreeEdges()
				if len(nte) == 0 {
					break
				}
				add := nte[rng.Intn(len(nte))]
				cyc := tr.FundamentalCycle(add)
				j := rng.Intn(len(cyc) - 1)
				if err := tr.Swap(add, graph.Edge{U: cyc[j], V: cyc[j+1]}); err != nil {
					t.Fatal(err)
				}
				checkDepths(t, fam+"/after-swaps", tr)
			}
		}
	}
}

// TestValidateRejectsCycleAfterValidChain: Validate resolves chains one
// after another in one buffer, and a parent cycle met after a chain that
// reached the root must still be reported.
func TestValidateRejectsCycleAfterValidChain(t *testing.T) {
	g := graph.Path(5)
	// 1→0 and 2→1 reach the root; 3→4→3 is a cycle.
	tr := &Tree{g: g, parent: []int{0, 0, 1, 4, 3}, root: 0}
	if err := tr.Validate(); err == nil {
		t.Fatal("parent cycle 3↔4 after the valid chain 2→1→0 accepted")
	}
	if _, err := NewFromParents(g, []int{0, 0, 1, 4, 3}, 0); err == nil {
		t.Fatal("NewFromParents accepted the parent cycle 3↔4")
	}
}
