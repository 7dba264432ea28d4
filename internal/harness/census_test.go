package harness

import (
	"runtime"
	"sync"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
)

// censusGraph is one labeled graph of the census: bit i of mask selects
// the i-th pair {u,v}, u < v, of the complete graph in lexicographic
// order.
type censusGraph struct {
	mask uint64
	g    *graph.Graph
}

// connectedLabeled enumerates every labeled connected graph on n nodes.
func connectedLabeled(n int) []censusGraph {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	var out []censusGraph
	for mask := uint64(0); mask < 1<<len(pairs); mask++ {
		g := graph.New(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				g.MustAddEdge(p[0], p[1])
			}
		}
		if g.IsConnected() {
			out = append(out, censusGraph{mask: mask, g: g})
		}
	}
	return out
}

// TestCensusN5 is the exhaustive small-graph census: every labeled
// connected graph on five nodes (728 of them), both exchanges, all
// three schedulers, a corrupt start and seeds 1–2, 8,736 runs. Δ* is
// proved by ExactDelta, not bounded by the F-R oracle. The oracle must
// end within Δ*+1 on every graph, and every run must converge to a
// legitimate configuration whose tree degree is at most Δ*+1.
func TestCensusN5(t *testing.T) {
	if testing.Short() {
		t.Skip("census: 8,736 runs")
	}
	graphs := connectedLabeled(5)
	if len(graphs) != 728 {
		t.Fatalf("%d connected labeled graphs on 5 nodes, want 728", len(graphs))
	}
	jobs := make(chan censusGraph)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cg := range jobs {
				censusCheck(t, cg)
			}
		}()
	}
	for _, cg := range graphs {
		jobs <- cg
	}
	close(jobs)
	wg.Wait()
}

// censusCheck runs one census graph through the oracle and every run of
// the census; a failure names the edge mask, variant, scheduler and seed.
func censusCheck(t *testing.T, cg censusGraph) {
	star, ok := mdstseq.ExactDelta(cg.g, 0)
	if !ok {
		t.Errorf("mask %#x: ExactDelta exhausted its budget", cg.mask)
		return
	}
	if d := mdstseq.Approximate(cg.g).MaxDegree(); d > star+1 {
		t.Errorf("mask %#x: Approximate ends at degree %d > Δ*+1 = %d", cg.mask, d, star+1)
	}
	for _, variant := range []Variant{VariantCore, VariantLiteral} {
		for _, sched := range []SchedulerKind{SchedSync, SchedAsync, SchedAdversarial} {
			for seed := int64(1); seed <= 2; seed++ {
				res, err := Run(RunSpec{Graph: cg.g, Variant: variant, Scheduler: sched,
					Start: StartCorrupt, Seed: seed})
				switch {
				case err != nil:
					t.Errorf("mask %#x %s/%s seed %d: %v", cg.mask, variant, sched, seed, err)
				case !res.Converged || !res.Legit.OK() || res.Tree == nil:
					t.Errorf("mask %#x %s/%s seed %d: converged=%v legit=%+v",
						cg.mask, variant, sched, seed, res.Converged, res.Legit)
				case res.Tree.MaxDegree() > star+1:
					t.Errorf("mask %#x %s/%s seed %d: tree degree %d > Δ*+1 = %d",
						cg.mask, variant, sched, seed, res.Tree.MaxDegree(), star+1)
				}
			}
		}
	}
}
