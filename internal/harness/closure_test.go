package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/spanning"
)

// climbDepth is the reference depth: v's parent pointers climbed one at
// a time up to the root.
func climbDepth(tr *spanning.Tree, v int) int {
	d := 0
	for ; v != tr.Root(); v = tr.Parent(v) {
		d++
	}
	return d
}

// TestPreloadFromTreeMatchesBruteForce checks the values PreloadFromTree
// writes against brute-force references on random and depth-first trees
// over several families: every distance is the node's parent-climb
// count, every submax the largest tree degree in the node's subtree, and
// every view of a neighbor u carries u's own variables and tree degree.
func TestPreloadFromTreeMatchesBruteForce(t *testing.T) {
	for _, fam := range []string{"gnp", "grid", "ring+chords", "geometric"} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := graph.MustFamily(fam).Build(30, rng)
			for _, tree := range []*spanning.Tree{spanning.RandomTree(g, 0, rng), spanning.DFSTree(g, 0)} {
				cfg := core.DefaultConfig(g.N())
				nodes := core.NodesOf(core.BuildNetwork(g, cfg, seed))
				if err := PreloadFromTree(g, nodes, cfg, tree); err != nil {
					t.Fatal(err)
				}
				deg := tree.Degrees()
				for v, nd := range nodes {
					if got, want := nd.Distance(), climbDepth(tree, v); got != want {
						t.Fatalf("%s seed %d: node %d distance %d, parent climb %d", fam, seed, v, got, want)
					}
					submax := 0
					for _, w := range tree.Subtree(v) {
						submax = max(submax, deg[w])
					}
					if got := nd.Submax(); got != submax {
						t.Fatalf("%s seed %d: node %d submax %d, subtree maximum degree %d", fam, seed, v, got, submax)
					}
				}
				for v, nd := range nodes {
					for _, u := range g.Neighbors(v) {
						o := nodes[u]
						want := core.View{Root: o.Root(), Parent: o.Parent(), Distance: o.Distance(),
							Dmax: o.Dmax(), Submax: o.Submax(), Deg: deg[u], Color: o.Color()}
						if got, _ := nd.ViewOf(u); got != want {
							t.Fatalf("%s seed %d: node %d views %d as %+v, want %+v", fam, seed, v, u, got, want)
						}
					}
				}
			}
		}
	}
}

// closureSpec is a closure run from the degree-2 path start on the event
// core: every node parks after its first tick, so the run is the network
// build, the preload, one exchange of gossip and the legitimacy check.
func closureSpec(n int, v Variant) RunSpec {
	g := graph.MustFamily("ring+chords").Build(n, rand.New(rand.NewSource(7)))
	return RunSpec{Graph: g, Scheduler: SchedSync, Start: StartPath,
		Engine: EngineEvent, Seed: 7, Variant: v}
}

// TestPathStartAllocsPerNode gates the heap objects of a path-start
// closure run at 10 per node (8.15 today). An allocation per link in the
// network build adds three per node on ring+chords (2m = 3n), and
// allocations per node in two of the build, the preload and the
// legitimacy check add two.
func TestPathStartAllocsPerNode(t *testing.T) {
	const n, perNode = 1024, 10
	for _, v := range []Variant{VariantCore, VariantLiteral} {
		spec := closureSpec(n, v)
		var res Result
		allocs := testing.AllocsPerRun(3, func() { res = MustRun(spec) })
		if !res.Converged || !res.Legit.OK() {
			t.Fatalf("%s: closure run failed: %+v", v, res.Legit)
		}
		if got := allocs / n; got > perNode {
			t.Errorf("%s: path-start run allocates %.2f objects per node, want ≤ %d", v, got, perNode)
		}
	}
}

// BenchmarkClosureRun is one closure run at n=16384, the size of the
// repository benchmark's closure workload.
func BenchmarkClosureRun(b *testing.B) {
	spec := closureSpec(16384, VariantCore)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := MustRun(spec); !res.Legit.OK() {
			b.Fatalf("closure run not legitimate: %+v", res.Legit)
		}
	}
}
