package benchtab

import (
	"strconv"
	"strings"
	"testing"

	"mdst/internal/harness"
)

func TestSeriesConvergenceShape(t *testing.T) {
	s, res := SeriesConvergenceVariant("gnp", 16, 3, harness.SchedSync, harness.VariantCore)
	if !res.Legit.OK() {
		t.Fatalf("run failed: %+v", res.Legit)
	}
	if s.Len() < 10 {
		t.Fatalf("series too short: %d", s.Len())
	}
	// Roots must end at 1 (single spanning tree).
	if s.Last("roots") != 1 {
		t.Fatalf("final roots=%v", s.Last("roots"))
	}
	// Final degree matches the run result.
	if int(s.Last("treeDeg")) != res.Tree.MaxDegree() {
		t.Fatalf("final treeDeg %v vs %d", s.Last("treeDeg"), res.Tree.MaxDegree())
	}
	// dmax agreement ends at n.
	if s.Last("dmaxAgree") != 16 {
		t.Fatalf("final dmaxAgree=%v", s.Last("dmaxAgree"))
	}
	if !strings.Contains(s.Name, "convergence-gnp") {
		t.Fatalf("name %q", s.Name)
	}
}

func TestSeriesRecoveryHealsDegree(t *testing.T) {
	s, res := SeriesRecovery("geometric", 20, 5, 4, harness.SchedSync)
	if !res.Legit.OK() {
		t.Fatalf("recovery failed: %+v", res.Legit)
	}
	if s.Last("roots") != 1 {
		t.Fatalf("roots=%v", s.Last("roots"))
	}
	// CSV export is well-formed: header + rows, one cell per column.
	lines := strings.Split(strings.TrimSpace(s.CSV()), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("csv lines %d vs %d rows", len(lines), s.Len())
	}
	for _, l := range lines {
		if len(strings.Split(l, ",")) != len(s.Columns) {
			t.Fatalf("bad csv row %q", l)
		}
	}
}

func TestE2FitRanksReasonably(t *testing.T) {
	tab := E2Fit("ring+chords", []int{12, 16, 24, 32}, 1, harness.SchedSync)
	if len(tab.Rows) == 0 {
		t.Fatal("no fits")
	}
	// Every row parses; the top fit's exponent is positive (cost grows).
	exp, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if exp <= 0 {
		t.Fatalf("nonpositive growth exponent %v", exp)
	}
	// The paper's worst-case model must fit with exponent < 1 (measured
	// growth is far below the bound).
	for _, row := range tab.Rows {
		if row[0] == "m n^2 log n" {
			e, _ := strconv.ParseFloat(row[1], 64)
			if e >= 1 {
				t.Fatalf("measured growth at/above the worst-case bound: %v", e)
			}
		}
	}
}

func TestE8TargetedFaults(t *testing.T) {
	tab := E8TargetedFaults("gnp", 14, 1, harness.SchedSync)
	if len(tab.Rows) != len(TargetRoles()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Fatalf("role %s did not recover: %v", row[0], row)
		}
	}
}

func TestE9LossyLinks(t *testing.T) {
	tab := E9LossyLinks("gnp", 14, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Safety must hold at every loss rate: a valid min-rooted tree.
		if row[4] != "true" {
			t.Fatalf("loss rate %s broke the tree: %v", row[0], row)
		}
	}
	// The zero-loss baseline must be fully legitimate with zero drops.
	if tab.Rows[0][3] != "0" || tab.Rows[0][5] != "true" {
		t.Fatalf("baseline wrong: %v", tab.Rows[0])
	}
}

func TestE10Churn(t *testing.T) {
	tab := E10Churn("gnp", 14, 2, harness.SchedSync)
	if len(tab.Rows) != len(harness.ChurnOps()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Fatalf("churn op %s failed: %v", row[0], row)
		}
	}
}

func TestSeriesConvergenceLiteralVariant(t *testing.T) {
	s, res := SeriesConvergenceVariant("gnp", 12, 1, harness.SchedSync, harness.VariantLiteral)
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("literal series run failed: %+v", res.Legit)
	}
	if s.Len() < 2 {
		t.Fatalf("series too short: %d", s.Len())
	}
	if s.Name != "convergence-literal-gnp-n12" {
		t.Fatalf("series name %q", s.Name)
	}
}
