package mdstseq_test

import (
	"fmt"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/spanning"
)

// The wheel graph has a degree-9 star as its worst spanning tree but a
// Hamiltonian path (degree 2) as its optimum; the Fürer–Raghavachari
// local search closes the gap to within one of Δ*.
func ExampleFurerRaghavachari() {
	g := graph.Wheel(10)
	tr := spanning.WorstDegreeTree(g, 0)
	fmt.Println("before:", tr.MaxDegree())
	mdstseq.FurerRaghavachari(tr)
	star, _ := mdstseq.ExactDelta(g, 0)
	fmt.Println("after:", tr.MaxDegree(), "optimal:", star)
	// Output:
	// before: 9
	// after: 2 optimal: 2
}

func ExampleExactDelta() {
	star, ok := mdstseq.ExactDelta(graph.StarOfCliques(3, 3), 0)
	fmt.Println(star, ok)
	// Output: 3 true
}

func ExampleLowerBoundDelta() {
	// The hub of a star must have degree n-1 in any spanning tree.
	fmt.Println(mdstseq.LowerBoundDelta(graph.Star(8)))
	// Output: 7
}
