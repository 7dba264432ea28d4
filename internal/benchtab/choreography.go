package benchtab

import (
	"fmt"

	"mdst/internal/harness"
	"mdst/internal/scenario"
)

// E11Choreography compares the two edge exchanges of internal/core —
// the ordered chain of single-parent moves (the "core" variant) and the
// literal Remove/Back choreography of the paper's Figures 1-2 —
// on identical workloads, seeds and schedulers.
// Both variants are axes of ONE scenario matrix (sharded across CPUs);
// the engine's instance-derived seeding guarantees the same graphs per
// cell, and Spec.TrackSafety surfaces the per-run broken-round counts.
//
// The expectation: both converge to legitimate configurations within
// the Theorem 2 bound, because the chain keeps a spanning tree at every
// step and the tree module repairs the literal choreography; the
// literal variant transiently breaks the spanning tree mid-exchange
// (brokenRounds > 0 is legal for it, never for core) and pays extra
// repair churn, which this table quantifies.
func E11Choreography(sizes []int, seeds int, sched harness.SchedulerKind) *scenario.Table {
	t := &scenario.Table{
		Title: "E11: exchange choreography ablation — S3 chain (core) vs literal Remove/Back (paper Figs. 1-2)",
		Columns: []string{"variant", "n", "rounds(avg)", "messages(avg)",
			"exchanges", "aborts", "brokenRounds", "deg(T)", "legitimate"},
		Notes: []string{
			"identical graphs/seeds per cell; brokenRounds counts rounds without a valid spanning tree after the first valid one",
			"core's exchange keeps the tree valid at every atomic step; its brokenRounds are late formation churn only,",
			"while the literal choreography also breaks the tree mid-exchange (see the closure tests for the isolated comparison)",
		},
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{"gnp"},
		Sizes:        sizes,
		Schedulers:   []harness.SchedulerKind{sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		Variants:     []harness.Variant{harness.VariantCore, harness.VariantLiteral},
		SeedsPerCell: seeds,
		BaseSeed:     11000,
		TrackSafety:  true,
	})
	// Cells expand in (size, variant) order; the table historically lists
	// all core rows before all literal rows, so group by variant.
	for _, variant := range []string{string(harness.VariantCore), string(harness.VariantLiteral)} {
		for _, c := range m.Cells {
			if c.Variant != variant {
				continue
			}
			exch, aborts, brokenSum := 0, 0, 0
			for _, rr := range m.Runs {
				if rr.Cell != c.Cell {
					continue
				}
				exch += rr.Exchanges
				aborts += rr.Aborts
				brokenSum += rr.BrokenRounds
			}
			deg := c.MaxDegree
			if deg < 0 {
				deg = 0
			}
			t.Rows = append(t.Rows, []string{c.Variant, itoa(c.N),
				ftoa(c.RoundsAvg),
				fmt.Sprintf("%.0f", c.MessagesAvg),
				itoa(exch), itoa(aborts), itoa(brokenSum),
				itoa(deg), btos(c.Legitimate)})
		}
	}
	return t
}
