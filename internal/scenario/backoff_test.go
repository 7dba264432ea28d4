package scenario

import (
	"reflect"
	"testing"

	"mdst/internal/core"
)

// The paper retry policy must be invisible: expanding the default
// 108-run matrix with an explicit Retry=[paper] axis yields the same
// runs — cells, labels and seeds — as the default spec, whose executed
// JSON TestSimMatrixByteIdenticalToCommittedBaseline pins to the
// committed PR-2 baseline. Equal runs execute identically (the axis
// label serializes empty and run seeds exclude the axis), so the
// expansion check carries the byte identity without a second execution.
func TestBackoffOffMatrixByteIdenticalToCommittedBaseline(t *testing.T) {
	spec := defaultMatrixSpec()
	want, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	spec.Retry = []core.RetryPolicy{core.RetryPaper}
	got, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 108 || !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit paper-policy matrix expands to %d runs unlike the default's %d",
			len(got), len(want))
	}
}

// The backoff policy expands like the other modes on the retry axis:
// cells double, the paper label stays empty, backoff cells are marked
// "on" in Backoff, and the run seed never depends on the axis —
// backed-off runs draw the SAME instances as their static twins.
func TestBackoffAxisExpansion(t *testing.T) {
	spec := Spec{
		Families:     []string{"wheel"},
		Sizes:        []int{8},
		Retry:        []core.RetryPolicy{core.RetryPaper, core.RetryBackoff},
		SeedsPerCell: 2,
		BaseSeed:     7,
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("expanded to %d runs, want 4 (2 modes x 2 seeds)", len(runs))
	}
	policy := map[string]core.RetryPolicy{"": core.RetryPaper, "on": core.RetryBackoff}
	seeds := map[string]map[int]int64{"": {}, "on": {}}
	for _, r := range runs {
		m, ok := seeds[r.Backoff]
		if !ok {
			t.Fatalf("unexpected backoff label %q", r.Backoff)
		}
		if r.Suppress != "" {
			t.Fatalf("suppress label %q on a paper/backoff axis", r.Suppress)
		}
		if r.Retry() != policy[r.Backoff] {
			t.Fatalf("Cell.Retry() = %s, want %s", r.Retry(), policy[r.Backoff])
		}
		m[r.SeedIndex] = r.Seed
	}
	if len(seeds[""]) != 2 || len(seeds["on"]) != 2 {
		t.Fatalf("mode split %d/%d, want 2/2", len(seeds[""]), len(seeds["on"]))
	}
	for i, a := range seeds[""] {
		if b := seeds["on"][i]; a != b {
			t.Fatalf("backoff axis changed run seed[%d]: %d vs %d", i, a, b)
		}
	}
	if _, err := (Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Retry: []core.RetryPolicy{core.RetryBackoff, core.RetryBackoff}}).Expand(); err == nil {
		t.Fatal("duplicate backoff mode accepted")
	}
}

// Satellite: the steady-state decay cell — the acceptance numbers the
// scale sweep commits into BENCH_scale.json — meets its bars on the
// sweep's own instance (same runSeed inputs as ScaleSweep): the
// post-convergence message rate in the final cap-length window decays
// at least 10x against the static-window twin on the paired seed, the
// fault is injected at the deepest backoff tier (retry spacing == cap),
// and recovery re-certifies legitimately inside the budget deadline.
func TestDecayCellMeetsAcceptanceBars(t *testing.T) {
	if testing.Short() {
		t.Skip("six cap-length event-core windows plus a fault recovery")
	}
	seed := runSeed(1, Cell{Family: "star-of-cliques", N: 256}, 0)
	cell, err := decayCell("star-of-cliques", 256, seed)
	if err != nil {
		t.Fatal(err)
	}
	last := len(cell.StaticPerWindow) - 1
	if last != 2 {
		t.Fatalf("observed %d windows, want 3", last+1)
	}
	if cell.DecayRatio < 10 {
		t.Fatalf("final-window decay ratio %.2f, want >= 10 (static %d vs backoff %d)",
			cell.DecayRatio, cell.StaticPerWindow[last], cell.BackoffPerWindow[last])
	}
	if cell.RetryAtFault != cell.CapWindow {
		t.Fatalf("fault injected at retry spacing %d, want the cap %d",
			cell.RetryAtFault, cell.CapWindow)
	}
	if !cell.RecoveredInBudget {
		t.Fatalf("recovery took %d rounds against budget %d without certifying",
			cell.RecoveryRounds, cell.RecoveryBudget)
	}
	if !cell.Legitimate {
		t.Fatal("post-recovery configuration not legitimate")
	}
}
