package benchtab

import (
	"fmt"

	"mdst/internal/harness"
	"mdst/internal/scenario"
)

// E10 (extension; the paper's §6 open problem): topology churn. A
// legitimate configuration is migrated onto a changed graph (edge
// removed or added) with all node state carried over, and the protocol
// re-stabilizes on the new topology. Removing a NON-tree edge should be
// almost free (the tree is untouched; at most the fixed point shifts);
// removing a TREE edge orphans a subtree that must re-attach; adding an
// edge may enable a better tree and re-trigger reduction.
//
// The stabilize→mutate→migrate→re-run cycle is scenario.Churn, the
// shared Executor fault model; this file only renders the table.

// E10Churn measures re-stabilization per churn operation.
func E10Churn(famName string, n, seeds int, sched harness.SchedulerKind) *scenario.Table {
	t := &scenario.Table{
		Title:   fmt.Sprintf("E10: topology churn on %s n=%d — re-stabilization by operation (extension)", famName, n),
		Columns: []string{"operation", "rounds(avg)", "rounds(max)", "legitimate"},
		Notes: []string{
			"a legitimate configuration is carried onto the changed graph and re-run (super-stabilization probe)",
			"removals preserve connectivity; rounds = last state change on the new topology",
		},
	}
	ops := harness.ChurnOps()
	faults := make([]scenario.FaultModel, len(ops))
	for i, op := range ops {
		faults[i] = scenario.Churn{Op: op}
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{famName},
		Sizes:        []int{n},
		Schedulers:   []harness.SchedulerKind{sched},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Faults:       faults,
		SeedsPerCell: seeds,
		BaseSeed:     int64(n * 15000),
		MaxRounds:    200*n + 20000,
	})
	for i, c := range m.Cells {
		t.Rows = append(t.Rows, []string{string(ops[i]), ftoa(c.RoundsAvg),
			itoa(c.RoundsMax), btos(c.Legitimate)})
	}
	return t
}
