package mdstseq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/graph"
	"mdst/internal/spanning"
)

func TestFindImprovementOnWheel(t *testing.T) {
	// Star tree inside a wheel: hub has degree n-1; ring edges allow
	// reduction down to degree 3.
	g := graph.Wheel(8)
	tr := spanning.WorstDegreeTree(g, 0)
	if tr.MaxDegree() != 7 {
		t.Fatalf("setup: hub degree %d", tr.MaxDegree())
	}
	imp, ok := FindDirectImprovement(tr)
	if !ok {
		t.Fatal("no direct improvement found on degenerate wheel tree")
	}
	before := tr.MaxDegree()
	if err := tr.Swap(imp.Add, imp.Remove); err != nil {
		t.Fatal(err)
	}
	if tr.Validate() != nil {
		t.Fatal("swap broke tree")
	}
	if tr.Degree(imp.Target) >= before {
		t.Fatal("target degree did not decrease")
	}
}

func TestFurerRaghavachariWheel(t *testing.T) {
	g := graph.Wheel(10)
	tr := spanning.WorstDegreeTree(g, 0)
	steps := FurerRaghavachari(tr)
	if steps == 0 {
		t.Fatal("no improvements applied")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wheel Δ* = 2 (Hamiltonian path exists: hub + arc). FR guarantees <= 3.
	if d := tr.MaxDegree(); d > 3 {
		t.Fatalf("FR degree %d, want <= 3", d)
	}
	if !IsFixedPoint(tr) {
		t.Fatal("FR result is not a fixed point")
	}
}

func TestFixedPointOnPath(t *testing.T) {
	g := graph.Path(6)
	tr := spanning.BFSTree(g, 0)
	if !IsFixedPoint(tr) {
		t.Fatal("path tree must be a fixed point")
	}
	if _, ok := FindDirectImprovement(tr); ok {
		t.Fatal("improvement reported on unique spanning tree")
	}
	if ImproveOnce(tr.Clone()) {
		t.Fatal("chain improvement reported on unique spanning tree")
	}
}

func TestFixedPointOnStarGraph(t *testing.T) {
	// Star graph: unique spanning tree, degree n-1, but no improvement
	// possible — fixed point with deg = Δ* exactly.
	g := graph.Star(7)
	tr := spanning.BFSTree(g, 0)
	if !IsFixedPoint(tr) {
		t.Fatal("unique tree must be fixed point")
	}
}

func TestHamiltonianAugmentedReachesDegreeThree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.HamiltonianAugmented(16, 30, rng)
		tr := spanning.WorstDegreeTree(g, 0)
		FurerRaghavachari(tr)
		if d := tr.MaxDegree(); d > 3 { // Δ* = 2, guarantee Δ*+1 = 3
			t.Fatalf("seed %d: degree %d > Δ*+1 = 3", seed, d)
		}
	}
}

func TestApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGnp(20, 0.3, rng)
	tr := Approximate(g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !IsFixedPoint(tr) {
		t.Fatal("Approximate did not reach a fixed point")
	}
}

func TestExactDeltaSmallCases(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path", graph.Path(6), 2},
		{"ring", graph.Ring(6), 2},
		{"star", graph.Star(6), 5},
		{"complete", graph.Complete(6), 2},
		{"wheel", graph.Wheel(8), 2},
		{"grid", graph.Grid(3, 3), 2}, // boustrophedon Hamiltonian path
		{"two-node", graph.Path(2), 1},
		{"one-node", graph.New(1), 0},
	}
	for _, c := range cases {
		got, ok := ExactDelta(c.g, 0)
		if !ok {
			t.Errorf("%s: budget exhausted", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s: Δ* = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestExactDeltaStarOfCliques(t *testing.T) {
	g := graph.StarOfCliques(3, 3)
	got, ok := ExactDelta(g, 0)
	if !ok {
		t.Fatal("budget exhausted")
	}
	// Hub attaches to 3 cliques; hub degree must be 3; inside each clique a
	// path suffices, so Δ* = 3.
	if got != 3 {
		t.Fatalf("Δ* = %d, want 3", got)
	}
}

func TestHasSpanningTreeWithDegree(t *testing.T) {
	g := graph.Star(5)
	if found, _ := HasSpanningTreeWithDegree(g, 3, 0); found {
		t.Fatal("star cannot have a degree-3 spanning tree")
	}
	if found, _ := HasSpanningTreeWithDegree(g, 4, 0); !found {
		t.Fatal("star has its own spanning tree of degree 4")
	}
	if found, _ := HasSpanningTreeWithDegree(graph.New(1), 0, 0); !found {
		t.Fatal("singleton")
	}
	if found, _ := HasSpanningTreeWithDegree(graph.Path(3), 0, 0); found {
		t.Fatal("k=0 impossible for n=3")
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	g := graph.Complete(12)
	_, ok := ExactDelta(g, 5) // absurdly small budget
	if ok {
		t.Fatal("expected budget exhaustion")
	}
}

// DeltaStar states Δ* one way for every caller: exact where the search
// finishes, the ring witness on a canonical-ring graph, and otherwise
// [LowerBoundDelta, deg(T_FR)] — also at n <= 20 when ExactDelta runs
// out of budget, as it does on K_{3,12}.
func TestDeltaStar(t *testing.T) {
	k312 := graph.New(15)
	for i := 0; i < 3; i++ {
		for j := 3; j < 15; j++ {
			k312.MustAddEdge(i, j)
		}
	}
	ring := graph.MustFamily("ring+chords").Build(64, rand.New(rand.NewSource(1)))
	gnp := graph.MustFamily("gnp").Build(24, rand.New(rand.NewSource(6)))
	const bracket = "lower bound, F-R tree"
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		ring bool
		want Bracket
		text string
	}{
		{"wheel", graph.Wheel(10), false, Bracket{2, 2, "exact"}, "2 (exact)"},
		{"ring+chords", ring, true, Bracket{2, 2, "canonical ring witness"}, "2 (canonical ring witness)"},
		{"K3,12", k312, false, Bracket{2, 5, bracket}, "in [2, 5] (lower bound, F-R tree)"},
		{"gnp", gnp, false, Bracket{LowerBoundDelta(gnp), Approximate(gnp).MaxDegree(), bracket}, ""},
	} {
		got := DeltaStar(tc.g, tc.ring)
		if got != tc.want || got.Lo > got.Hi {
			t.Errorf("%s: DeltaStar = %+v, want %+v", tc.name, got, tc.want)
		}
		if tc.text != "" && got.String() != tc.text {
			t.Errorf("%s: String() = %q, want %q", tc.name, got.String(), tc.text)
		}
	}
}

func TestLowerBoundDelta(t *testing.T) {
	if b := LowerBoundDelta(graph.Star(6)); b != 5 {
		t.Fatalf("star bound %d, want 5", b)
	}
	if b := LowerBoundDelta(graph.Ring(6)); b != 2 {
		t.Fatalf("ring bound %d, want 2", b)
	}
	if b := LowerBoundDelta(graph.StarOfCliques(4, 3)); b != 4 {
		t.Fatalf("star-of-cliques bound %d, want 4", b)
	}
	if b := LowerBoundDelta(graph.New(1)); b != 0 {
		t.Fatalf("singleton bound %d", b)
	}
	if b := LowerBoundDelta(graph.Path(2)); b != 1 {
		t.Fatalf("two-node bound %d", b)
	}
}

// Property: the FR guarantee deg(T) <= Δ*+1 holds on random small graphs,
// checked against the exact solver. This is the paper's Theorem 1/2
// centerpiece at the sequential level.
func TestQuickFRWithinOneOfOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6) // 5..10: exact solver territory
		g := graph.RandomGnp(n, 0.4, rng)
		tr := spanning.RandomTree(g, rng.Intn(n), rng)
		FurerRaghavachari(tr)
		star, ok := ExactDelta(g, 0)
		if !ok {
			return true // budget blown: skip
		}
		return tr.MaxDegree() <= star+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every direct improvement strictly decreases the sorted degree
// sequence, and every committed chain improvement strictly decreases the
// potential (k, number of degree-k nodes) — the termination arguments for
// the local search.
func TestQuickImprovementDecreasesPotential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		g := graph.RandomGnp(n, 0.35, rng)
		tr := spanning.WorstDegreeTree(g, rng.Intn(n))
		for i := 0; i < 60; i++ {
			if imp, ok := FindDirectImprovement(tr); ok {
				before := tr.DegreeSequence()
				if err := tr.Swap(imp.Add, imp.Remove); err != nil {
					return false
				}
				if spanning.CompareDegreeSequences(tr.DegreeSequence(), before) != -1 {
					return false
				}
				continue
			}
			kBefore := tr.MaxDegree()
			countBefore := countDeg(tr, kBefore)
			if !ImproveOnce(tr) {
				return true
			}
			if tr.Validate() != nil {
				return false
			}
			kAfter := tr.MaxDegree()
			if kAfter > kBefore {
				return false
			}
			if kAfter == kBefore && countDeg(tr, kAfter) >= countBefore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func countDeg(t *spanning.Tree, k int) int {
	c := 0
	for _, d := range t.Degrees() {
		if d == k {
			c++
		}
	}
	return c
}

// Property: exact Δ* is never below the combinatorial lower bound and FR
// never beats it.
func TestQuickBoundsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := graph.RandomGnp(n, 0.5, rng)
		star, ok := ExactDelta(g, 0)
		if !ok {
			return true
		}
		if star < LowerBoundDelta(g) {
			return false
		}
		tr := Approximate(g)
		return tr.MaxDegree() >= star
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeProfile(t *testing.T) {
	g := graph.Star(4)
	tr := spanning.BFSTree(g, 0)
	p := DegreeProfile(tr)
	if p[0] != 3 || p[len(p)-1] != 1 {
		t.Fatalf("profile %v", p)
	}
}
