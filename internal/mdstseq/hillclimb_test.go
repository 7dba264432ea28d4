package mdstseq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdst/internal/graph"
	"mdst/internal/spanning"
)

func TestHillClimbImprovesWheel(t *testing.T) {
	g := graph.Wheel(10)
	tr := spanning.WorstDegreeTree(g, 0) // star, degree 9
	rng := rand.New(rand.NewSource(1))
	applied := HillClimb(tr, rng, 300)
	if applied == 0 {
		t.Fatal("no swaps applied")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxDegree() >= 9 {
		t.Fatalf("degree %d not improved", tr.MaxDegree())
	}
}

func TestHillClimbNoNonTreeEdges(t *testing.T) {
	g := graph.Path(5) // tree graph: nothing to swap
	tr := spanning.BFSTree(g, 0)
	if HillClimb(tr, rand.New(rand.NewSource(2)), 10) != 0 {
		t.Fatal("swaps applied on a tree graph")
	}
}

// Property: hill climbing never worsens the degree sequence and always
// leaves a valid tree; FR (with deblocking) is at least as good.
func TestQuickHillClimbVsFR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		g := graph.RandomGnp(n, 0.35, rng)
		hc := spanning.WorstDegreeTree(g, 0)
		before := hc.DegreeSequence()
		HillClimb(hc, rng, 150)
		if hc.Validate() != nil {
			return false
		}
		if spanning.CompareDegreeSequences(hc.DegreeSequence(), before) == 1 {
			return false
		}
		fr := spanning.WorstDegreeTree(g, 0)
		FurerRaghavachari(fr)
		if fr.Validate() != nil {
			return false
		}
		// FR guarantees deg <= Δ*+1; hill climbing guarantees nothing but
		// can luckily reach Δ* exactly, so FR may be one worse — never more.
		return fr.MaxDegree() <= hc.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
