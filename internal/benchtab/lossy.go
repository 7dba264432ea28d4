package benchtab

import (
	"fmt"

	"mdst/internal/harness"
	"mdst/internal/scenario"
)

// E9 (extension beyond the paper): lossy links. The paper assumes
// reliable FIFO channels; this experiment drops each delivery with a
// fixed probability. The tree machinery is naturally loss-tolerant
// (InfoMsg is periodic, a lost Reverse hop aborts a chain into a valid
// tree), so the spanning tree always forms; the OPTIMIZATION however
// relies on Search tokens surviving up to 2n consecutive hops, whose
// probability decays as (1-p)^{2n} — at high loss the tree is valid but
// can stall short of the Fürer–Raghavachari fixed point. The table
// separates the two: treeOK (safety) versus fixedPoint (optimality).
//
// The sweep executes through the scenario engine: one cell per drop
// rate, runs sharded across all CPUs, with scenario.Lossy as the shared
// fault model.

// E9LossyLinks sweeps drop rates on one family.
func E9LossyLinks(famName string, n, seeds int) *scenario.Table {
	t := &scenario.Table{
		Title:   fmt.Sprintf("E9: lossy links on %s n=%d — rounds vs drop rate (extension)", famName, n),
		Columns: []string{"dropRate", "rounds(avg)", "rounds(max)", "dropped(avg)", "treeOK", "fixedPoint"},
		Notes: []string{
			"the paper's model assumes reliable links; with loss the tree still forms (safety)",
			"but Search tokens die with prob 1-(1-p)^{2n}, so optimality can stall at high loss",
		},
	}
	rates := []float64{0, 0.01, 0.05, 0.1, 0.25}
	faults := make([]scenario.FaultModel, len(rates))
	for i, rate := range rates {
		faults[i] = scenario.Lossy{Rate: rate}
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{famName},
		Sizes:        []int{n},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		Faults:       faults,
		SeedsPerCell: seeds,
		BaseSeed:     int64(n * 13000),
		MaxRounds:    400*n + 40000,
	})
	for i, c := range m.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rates[i]),
			ftoa(c.RoundsAvg),
			itoa(c.RoundsMax),
			fmt.Sprintf("%.0f", c.DroppedAvg),
			btos(c.TreeOK),
			btos(c.FixedPoint),
		})
	}
	return t
}
