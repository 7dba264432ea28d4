package benchtab

import (
	"fmt"

	"mdst/internal/harness"
	"mdst/internal/scenario"
)

// E8 (extension beyond the paper): targeted transient faults. The
// paper's Definition 1 treats all corruptions alike; operationally it
// matters WHERE the fault hits. This experiment corrupts specific roles
// — the root, the deepest leaf, a maximum-degree node, or a random node
// — and compares recovery cost, quantifying the intuition that
// root-adjacent corruption is the most expensive (it can re-trigger the
// global election).
//
// The role machinery lives in internal/scenario (scenario.Targeted /
// scenario.PickTargets) and is shared with the matrix CLI; this file
// only renders the table.

// E8TargetedFaults measures recovery cost per fault role on one family.
func E8TargetedFaults(famName string, n, seeds int, sched harness.SchedulerKind) *scenario.Table {
	t := &scenario.Table{
		Title:   fmt.Sprintf("E8: targeted faults on %s n=%d — recovery rounds by role (extension)", famName, n),
		Columns: []string{"role", "nodes", "rounds(avg)", "rounds(max)", "legitimate"},
		Notes: []string{
			"each run corrupts only the named role's node(s) in a legitimate configuration",
			"extension beyond the paper: Definition 1 is location-oblivious; operations care",
		},
	}
	roles := scenario.TargetRoles()
	faults := make([]scenario.FaultModel, len(roles))
	for i, role := range roles {
		faults[i] = scenario.Targeted{Role: role}
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{famName},
		Sizes:        []int{n},
		Schedulers:   []harness.SchedulerKind{sched},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Faults:       faults,
		SeedsPerCell: seeds,
		BaseSeed:     int64(n * 11000),
	})
	for i, c := range m.Cells {
		t.Rows = append(t.Rows, []string{string(roles[i]), itoa(c.Corrupted),
			ftoa(c.RoundsAvg), itoa(c.RoundsMax), btos(c.Legitimate)})
	}
	return t
}
