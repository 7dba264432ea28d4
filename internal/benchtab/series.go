package benchtab

import (
	"fmt"
	"math/rand"

	"mdst/internal/analysis"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/metrics"
	"mdst/internal/scenario"
	"mdst/internal/trace"
)

// Figure-series generators: per-round traces (the data behind the plots
// that a paper with an empirical section would show), plus the
// complexity-model fit table that formalizes E2's "shape check". A
// figure series is a collected run's metrics.Collector.Series: tree
// degree, root count, dmax agreement, traffic and detection progress
// from the initial configuration (epoch 0) to the last round.

// SeriesConvergenceVariant traces one stabilization run from a
// corrupted configuration under the chosen exchange (figure F-conv, and
// the time-resolved view of ablation E11).
func SeriesConvergenceVariant(famName string, n int, seed int64, sched harness.SchedulerKind, variant harness.Variant) (*trace.Series, harness.Result) {
	fam := graph.MustFamily(famName)
	rng := rand.New(rand.NewSource(seed))
	g := fam.Build(n, rng)
	name := fmt.Sprintf("convergence-%s-n%d", famName, n)
	if variant == harness.VariantLiteral {
		name = fmt.Sprintf("convergence-literal-%s-n%d", famName, n)
	}
	return collectSeries(name, harness.RunSpec{
		Graph: g, Variant: variant, Scheduler: sched, Start: harness.StartCorrupt, Seed: seed,
	})
}

// SeriesRecovery traces a fault-recovery run: a legitimate configuration
// with `faults` corrupted nodes re-stabilizing (figure F-recovery).
func SeriesRecovery(famName string, n, faults int, seed int64, sched harness.SchedulerKind) (*trace.Series, harness.Result) {
	fam := graph.MustFamily(famName)
	rng := rand.New(rand.NewSource(seed))
	g := fam.Build(n, rng)
	return collectSeries(fmt.Sprintf("recovery-%s-n%d-f%d", famName, n, faults), harness.RunSpec{
		Graph: g, Scheduler: sched, Start: harness.StartLegitimate,
		CorruptNodes: faults, Seed: seed,
	})
}

// collectSeries runs spec with a collector that samples every round up
// to n=32 and every fourth round above, and returns its series.
func collectSeries(name string, spec harness.RunSpec) (*trace.Series, harness.Result) {
	coll := &metrics.Collector{}
	if spec.Graph.N() > 32 {
		coll.Every = 4
	}
	spec.Collect = coll
	res := harness.MustRun(spec)
	return coll.Series(name), res
}

// E2Fit regresses the measured convergence rounds of a family against
// the standard complexity models and reports the ranked fits — the
// formal version of E2's ratio column. Sizes should span at least a
// factor of 4 for a meaningful exponent.
func E2Fit(famName string, sizes []int, seeds int, sched harness.SchedulerKind) *scenario.Table {
	fam := graph.MustFamily(famName)
	var pts []analysis.Point
	for _, n := range sizes {
		for s := 0; s < seeds; s++ {
			seed := int64(n*9000 + s)
			rng := rand.New(rand.NewSource(seed))
			g := fam.Build(n, rng)
			res := harness.MustRun(harness.RunSpec{
				Graph: g, Scheduler: sched, Start: harness.StartCorrupt, Seed: seed,
			})
			if res.LastChange > 0 {
				pts = append(pts, analysis.Point{N: g.N(), M: g.M(), Cost: float64(res.LastChange)})
			}
		}
	}
	t := &scenario.Table{
		Title:   fmt.Sprintf("E2-fit: measured rounds vs complexity models (%s)", famName),
		Columns: []string{"model", "exponent", "scale", "R2"},
		Notes: []string{
			"log-log regression of rounds against each model; exponent 1 = matching growth",
			"the paper's O(m n^2 log n) is an upper bound: exponents well below 1 are expected",
		},
	}
	for _, fit := range analysis.BestFit(pts, analysis.StandardModels()) {
		t.Rows = append(t.Rows, []string{
			fit.Model.Name,
			fmt.Sprintf("%.3f", fit.Exponent),
			fmt.Sprintf("%.3g", fit.Scale),
			fmt.Sprintf("%.3f", fit.R2),
		})
	}
	return t
}
