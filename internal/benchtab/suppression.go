package benchtab

import (
	"fmt"

	"mdst/internal/core"
	"mdst/internal/harness"
	"mdst/internal/scenario"
)

// E12SearchTraffic measures duplicate Search-token pruning: the same
// drawn instances (the retry axis is excluded from run seeds) under the
// core.RetryPaper and core.RetrySuppress policies, per family × size.
// The quality columns must agree between the paired rows — suppression
// is outcome-equivalent — while the traffic columns show what the
// pruning saves; the committed large-n version of this comparison lives
// in BENCH_scale.json's suppression section.
func E12SearchTraffic(famName string, sizes []int, seeds int, sched harness.SchedulerKind) *Table {
	t := &Table{
		Title: fmt.Sprintf("E12: search-traffic suppression on %s — paired paper/suppress message volume", famName),
		Columns: []string{"n", "retry", "rounds(avg)", "messages(avg)",
			"searchMsgs(avg)", "suppressed(avg)", "deg(T)", "legitimate", "within Δ*+1"},
		Notes: []string{
			"paired instances: the retry axis draws identical graphs and corruptions",
			"suppression defers redundant Search tokens; legitimacy and the degree bracket must not move",
			"suppressed runs quiesce over a retry-period-aware (longer) stability window, so at small n",
			"the extra gossip rounds can outweigh the Search savings; the committed large-n comparison",
			"is BENCH_scale.json's suppression section (~3.4x fewer Search messages at n=512)",
		},
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{famName},
		Sizes:        sizes,
		Schedulers:   []harness.SchedulerKind{sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		Retry:        []core.RetryPolicy{core.RetryPaper, core.RetrySuppress},
		SeedsPerCell: seeds,
		BaseSeed:     12000,
	})
	// Search-kind volume rides on RunResult's programmatic fields; fold
	// it per cell here (the engine's serialized aggregates must stay
	// byte-stable, so the column lives in this table only).
	searchAvg := map[scenario.Cell]float64{}
	count := map[scenario.Cell]int{}
	for _, rr := range m.Runs {
		if rr.Err != "" || rr.Skipped {
			continue
		}
		searchAvg[rr.Cell] += float64(rr.SearchMessages)
		count[rr.Cell]++
	}
	for _, c := range m.Cells {
		deg := c.MaxDegree
		if deg < 0 {
			deg = 0
		}
		search := 0.0
		if n := count[c.Cell]; n > 0 {
			search = searchAvg[c.Cell] / float64(n)
		}
		t.Rows = append(t.Rows, []string{
			itoa(c.Nodes), c.Retry().String(),
			ftoa(c.RoundsAvg),
			fmt.Sprintf("%.0f", c.MessagesAvg),
			fmt.Sprintf("%.0f", search),
			fmt.Sprintf("%.0f", c.SuppressedAvg),
			itoa(deg), btos(c.Legitimate), btos(c.WithinBound)})
	}
	return t
}
