package benchtab

import (
	"strings"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/harness"
)

// tinySweep keeps test runtime low.
func tinySweep() SweepSpec {
	return SweepSpec{Sizes: []int{10}, Seeds: 1, Sched: harness.SchedSync}
}

func tinyFamilies() []graph.Family {
	return []graph.Family{graph.MustFamily("ring+chords"), graph.MustFamily("gnp")}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	out := tab.Render()
	for _, want := range []string{"== demo ==", "a    bb", "333  4", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestE1AllWithinBound(t *testing.T) {
	tab := E1DegreeQuality(tinySweep(), tinyFamilies())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("Theorem 2 violated in row %v", row)
		}
	}
}

func TestE2HasPositiveRounds(t *testing.T) {
	tab := E2Convergence(tinySweep(), tinyFamilies())
	for _, row := range tab.Rows {
		if row[3] == "0" {
			t.Fatalf("zero rounds in %v", row)
		}
	}
}

func TestE3RatioBounded(t *testing.T) {
	tab := E3Memory(tinySweep(), tinyFamilies())
	for _, row := range tab.Rows {
		// stateBits present and nonzero.
		if row[3] == "0" {
			t.Fatalf("no state bits in %v", row)
		}
	}
}

func TestE4MessageWords(t *testing.T) {
	tab := E4MessageLength(tinySweep(), tinyFamilies())
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Fatalf("no messages in %v", row)
		}
	}
}

func TestE5FaultRecoveryTable(t *testing.T) {
	tab := E5FaultRecovery(12, 1, harness.SchedSync)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Fatalf("recovery failed: %v", row)
		}
	}
}

func TestE6BaselinesOrdering(t *testing.T) {
	tab := E6Baselines(tinySweep(), tinyFamilies())
	for _, row := range tab.Rows {
		// selfstab (col 6) never worse than worstBFS (col 4).
		if row[6] > row[4] && len(row[6]) >= len(row[4]) {
			t.Fatalf("selfstab worse than worst tree: %v", row)
		}
	}
}

func TestE7AblationsLegitimate(t *testing.T) {
	tab := E7Ablations(10, 1)
	if len(tab.Rows) != len(Ablations()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Fatalf("ablation not legitimate: %v", row)
		}
	}
}

func TestE12SearchTrafficPairedRows(t *testing.T) {
	tab := E12SearchTraffic("gnp", []int{12}, 2, "sync")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d, want paper+suppress pair", len(tab.Rows))
	}
	off, on := tab.Rows[0], tab.Rows[1]
	if off[1] != "paper" || on[1] != "suppress" {
		t.Fatalf("retry labels %q/%q", off[1], on[1])
	}
	// Outcome equivalence: quality columns agree between the pair.
	for _, c := range []int{0, 7, 8} { // n, legitimate, within
		if off[c] != on[c] {
			t.Fatalf("column %d diverged: %q vs %q", c, off[c], on[c])
		}
	}
	if off[7] != "true" || off[8] != "true" {
		t.Fatalf("paired rows not legitimate/within bound: %v %v", off, on)
	}
	if off[5] != "0" || on[5] == "0" {
		t.Fatalf("suppressed counters off=%q on=%q", off[5], on[5])
	}
}

func TestAllSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	tables := All(tinySweep(), tinyFamilies())
	if len(tables) != 12 {
		t.Fatalf("tables=%d, want 12", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("empty table %q", tab.Title)
		}
		if tab.Render() == "" || tab.CSV() == "" {
			t.Fatalf("render failed for %q", tab.Title)
		}
	}
}
