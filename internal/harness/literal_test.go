package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
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

func TestRunTracedLiteralSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGnp(12, 0.4, rng)
	res, series := RunTraced(RunSpec{
		Graph: g, Variant: VariantLiteral,
		Scheduler: SchedSync, Start: StartCorrupt, Seed: 4,
	}, 1)
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("traced literal run failed: %+v", res.Legit)
	}
	if series.Len() < 2 {
		t.Fatalf("series too short: %d", series.Len())
	}
	// The first sample of a corrupted start rarely has a valid tree; the
	// last sample must, and its treeDeg must equal the final degree.
	last := series.Row(series.Len() - 1)
	if int(last[1]) != res.Legit.MaxDegree {
		t.Fatalf("final series treeDeg %v != %d", last[1], res.Legit.MaxDegree)
	}
}
