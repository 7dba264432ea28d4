package benchtab

import (
	"fmt"
	"math/rand"

	"mdst/internal/analysis"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/trace"
)

// Figure-series generators: per-round traces (the data behind the plots
// that a paper with an empirical section would show), plus the
// complexity-model fit table that formalizes E2's "shape check".

// SeriesConvergence traces one stabilization run from a corrupted
// configuration: tree degree, root count, dmax agreement and traffic per
// round (figure F-conv).
func SeriesConvergence(famName string, n int, seed int64, sched harness.SchedulerKind) (*trace.Series, harness.Result) {
	return SeriesConvergenceVariant(famName, n, seed, sched, harness.VariantCore)
}

// SeriesConvergenceVariant is SeriesConvergence for a chosen protocol
// implementation — the time-resolved view of ablation E11.
func SeriesConvergenceVariant(famName string, n int, seed int64, sched harness.SchedulerKind, variant harness.Variant) (*trace.Series, harness.Result) {
	fam := graph.MustFamily(famName)
	rng := rand.New(rand.NewSource(seed))
	g := fam.Build(n, rng)
	res, s := runTracedSeries(g, harness.RunSpec{
		Graph: g, Variant: variant, Scheduler: sched, Start: harness.StartCorrupt, Seed: seed,
	})
	if variant == harness.VariantLiteral {
		s.Name = fmt.Sprintf("convergence-literal-%s-n%d", famName, n)
	} else {
		s.Name = fmt.Sprintf("convergence-%s-n%d", famName, n)
	}
	return s, res
}

// SeriesRecovery traces a fault-recovery run: a legitimate configuration
// with `faults` corrupted nodes re-stabilizing (figure F-recovery).
func SeriesRecovery(famName string, n, faults int, seed int64, sched harness.SchedulerKind) (*trace.Series, harness.Result) {
	fam := graph.MustFamily(famName)
	rng := rand.New(rand.NewSource(seed))
	g := fam.Build(n, rng)
	res, s := runTracedSeries(g, harness.RunSpec{
		Graph: g, Scheduler: sched, Start: harness.StartLegitimate,
		CorruptNodes: faults, Seed: seed,
	})
	s.Name = fmt.Sprintf("recovery-%s-n%d-f%d", famName, n, faults)
	return s, res
}

func runTracedSeries(g *graph.Graph, spec harness.RunSpec) (harness.Result, *trace.Series) {
	every := 1
	if g.N() > 32 {
		every = 4
	}
	return harness.RunTraced(spec, every)
}

// E2Fit regresses the measured convergence rounds of a family against
// the standard complexity models and reports the ranked fits — the
// formal version of E2's ratio column. Sizes should span at least a
// factor of 4 for a meaningful exponent.
func E2Fit(famName string, sizes []int, seeds int, sched harness.SchedulerKind) *Table {
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
	t := &Table{
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
