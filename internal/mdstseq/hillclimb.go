package mdstseq

import (
	"math/rand"

	"mdst/internal/graph"
	"mdst/internal/spanning"
)

// HillClimb is a randomized local-search baseline for MDST without the
// Fürer–Raghavachari blocking machinery: it repeatedly samples a
// non-tree edge and a cycle edge and applies the swap whenever it
// strictly improves the sorted degree sequence. It converges to a local
// optimum that is generally weaker than the FR fixed point — the
// comparison quantifies what the paper's Deblock recursion buys.
//
// The tree is modified in place; the return value is the number of
// applied swaps.
func HillClimb(t *spanning.Tree, rng *rand.Rand, maxIdle int) int {
	if maxIdle <= 0 {
		maxIdle = 200
	}
	applied := 0
	idle := 0
	for idle < maxIdle {
		nte := t.NonTreeEdges()
		if len(nte) == 0 {
			return applied
		}
		add := nte[rng.Intn(len(nte))]
		cyc := t.FundamentalCycle(add)
		i := rng.Intn(len(cyc) - 1)
		rm := graph.Edge{U: cyc[i], V: cyc[i+1]}
		before := t.DegreeSequence()
		clone := t.Clone()
		if err := clone.Swap(add, rm); err != nil {
			idle++
			continue
		}
		if spanning.CompareDegreeSequences(clone.DegreeSequence(), before) == -1 {
			t.Assign(clone)
			applied++
			idle = 0
		} else {
			idle++
		}
	}
	return applied
}
