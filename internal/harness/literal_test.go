package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/metrics"
	"mdst/internal/sim"
)

func TestRunLiteralVariantConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomGnp(14, 0.35, rng)
	res := MustRun(RunSpec{
		Graph: g, Variant: VariantLiteral,
		Scheduler: SchedSync, Start: StartCorrupt, Seed: 5,
	})
	if !res.Converged {
		t.Fatalf("literal variant did not converge (rounds=%d)", res.Rounds)
	}
	if !res.Legit.OK() {
		t.Fatalf("not legitimate: %+v", res.Legit)
	}
	if res.Tree == nil {
		t.Fatal("no tree extracted")
	}
}

func TestRunLiteralFromLegitimate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomGnp(12, 0.4, rng)
	res := MustRun(RunSpec{
		Graph: g, Variant: VariantLiteral,
		Scheduler: SchedSync, Start: StartLegitimate,
		CorruptNodes: 2, Seed: 9, TrackSafety: true,
	})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("recovery failed: converged=%v legit=%+v", res.Converged, res.Legit)
	}
}

func TestPreloadLiteralIsLegitimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGnp(10, 0.4, rng)
	cfg := core.DefaultConfig(10)
	net := sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		return core.NewLiteralNode(id, nbrs, cfg)
	}, 3)
	nodes := core.NodesOf(net)
	if err := PreloadLiteral(g, nodes, cfg); err != nil {
		t.Fatal(err)
	}
	leg := core.CheckLegitimacy(g, nodes)
	if !leg.OK() {
		t.Fatalf("preloaded configuration not legitimate: %+v", leg)
	}
}

func TestVariantDefaultIsCore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomGnp(10, 0.4, rng)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartClean, Seed: 1})
	if !res.Converged || res.Tree == nil {
		t.Fatal("default (core) variant run failed")
	}
}

// A collected literal run's stream ends on the converged tree: the
// first snapshot of a corrupted start rarely has a valid tree, the last
// one must, and its TreeDegree must equal the final degree.
func TestCollectedLiteralSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGnp(12, 0.4, rng)
	coll := &metrics.Collector{}
	res := MustRun(RunSpec{
		Graph: g, Variant: VariantLiteral,
		Scheduler: SchedSync, Start: StartCorrupt, Seed: 4, Collect: coll,
	})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("collected literal run failed: %+v", res.Legit)
	}
	if coll.Len() < 2 {
		t.Fatalf("stream too short: %d", coll.Len())
	}
	if last, _ := coll.Last(); last.TreeDegree != res.Legit.MaxDegree {
		t.Fatalf("final snapshot TreeDegree %d != %d", last.TreeDegree, res.Legit.MaxDegree)
	}
}
