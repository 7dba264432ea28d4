package harness

import (
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
)

// RunTraced executes the spec it is given through Run's own loop: on
// lossy links, the event engine, backoff, the literal exchange and a
// corrupted legitimate start, its Result matches Run's field for field,
// and its series starts at round 0 and never runs past the last round.
func TestRunTracedRunsTheSpecItIsGiven(t *testing.T) {
	g := graph.Wheel(10)
	base := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt, Seed: 3}
	specs := map[string]func(RunSpec) RunSpec{
		"lossy":   func(s RunSpec) RunSpec { s.DropRate = 0.1; return s },
		"event":   func(s RunSpec) RunSpec { s.Engine = EngineEvent; return s },
		"backoff": func(s RunSpec) RunSpec { s.Config = retryConfig(g, core.RetryBackoff); return s },
		"literal": func(s RunSpec) RunSpec { s.Variant = VariantLiteral; return s },
		"corrupted-legit": func(s RunSpec) RunSpec {
			s.Start, s.CorruptNodes = StartLegitimate, 3
			return s
		},
	}
	for name, mod := range specs {
		t.Run(name, func(t *testing.T) {
			spec := mod(base)
			want := MustRun(spec)
			got, series := RunTraced(spec, 1)
			if got.Rounds != want.Rounds || got.LastChange != want.LastChange ||
				got.TotalMessages != want.TotalMessages || got.Dropped != want.Dropped {
				t.Fatalf("traced rounds=%d last=%d msgs=%d dropped=%d, Run rounds=%d last=%d msgs=%d dropped=%d",
					got.Rounds, got.LastChange, got.TotalMessages, got.Dropped,
					want.Rounds, want.LastChange, want.TotalMessages, want.Dropped)
			}
			if got.Legit != want.Legit {
				t.Fatalf("traced legitimacy %+v, Run %+v", got.Legit, want.Legit)
			}
			if (got.Tree == nil) != (want.Tree == nil) ||
				(got.Tree != nil && got.Tree.MaxDegree() != want.Tree.MaxDegree()) {
				t.Fatal("traced tree differs from Run's")
			}
			if !got.Converged || series == nil || series.Len() < 2 {
				t.Fatalf("converged=%v, series %v", got.Converged, series)
			}
			first, last := series.Row(0), series.Row(series.Len()-1)
			if first[0] != 0 || int(last[0]) > got.Rounds || series.Len() > got.Rounds+1 {
				t.Fatalf("series rows %d span rounds %v..%v of %d", series.Len(), first[0], last[0], got.Rounds)
			}
		})
	}
}

// An invalid spec panics, as in MustRun, instead of running something
// else; a failed preload returns no series.
func TestRunTracedRejectsInvalidSpec(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunTraced accepted drop rate 1.5")
			}
		}()
		RunTraced(RunSpec{Graph: graph.Wheel(6), DropRate: 1.5}, 1)
	}()
	res, series := RunTraced(RunSpec{Graph: graph.Star(6), Start: StartPath}, 1)
	if series != nil || res.Legit.Detail == "" {
		t.Fatalf("failed path preload returned series %v, detail %q", series, res.Legit.Detail)
	}
}
