// Quickstart: build a small network, run the self-stabilizing MDST
// protocol from a fully corrupted configuration, and print the resulting
// spanning tree next to the optimal degree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
)

func main() {
	// A wheel: one hub connected to a ring. The naive BFS tree is the
	// degree-9 star; the minimum-degree spanning tree is a Hamiltonian
	// path of degree 2.
	g := graph.Wheel(10)
	fmt.Printf("network: n=%d m=%d max graph degree=%d\n", g.N(), g.M(), g.MaxDegree())

	res := harness.MustRun(harness.RunSpec{
		Graph:     g,
		Scheduler: harness.SchedSync,
		Start:     harness.StartCorrupt, // arbitrary initial state (Definition 1)
		Seed:      1,
	})
	if !res.Legit.OK() {
		log.Fatalf("did not stabilize: %+v", res.Legit)
	}

	star := mdstseq.DeltaStar(g, false)
	fmt.Printf("stabilized after round %d (quiescence declared at round %d)\n",
		res.LastChange, res.Rounds)
	fmt.Printf("tree degree: %d   Δ*: %v   guarantee Δ*+1 <= %d\n",
		res.Tree.MaxDegree(), star, star.Hi+1)
	fmt.Println("tree edges:")
	for _, e := range res.Tree.Edges() {
		fmt.Printf("  %v\n", e)
	}
	fmt.Printf("messages: %d total, largest %d words (%s)\n",
		res.TotalMessages, res.Metrics.MaxMsgSize, res.Metrics.MaxMsgSizeKind)
}
