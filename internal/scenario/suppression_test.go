package scenario

import (
	"bytes"
	"testing"

	"mdst/internal/core"
)

// Tentpole: outcome equivalence of the search-traffic suppression hot
// path. The suppression axis pairs every run (seeds exclude the axis, so
// on/off cells draw identical workloads and corruptions); suppressed
// runs must reach the same legitimacy predicate and the identical Δ*+1
// degree bracket as their unsuppressed twins on the property-sweep
// families, while actually pruning traffic (suppressed > 0 and fewer
// Search-kind messages in aggregate). Exact trees and round counts may
// differ — suppression defers redundant tokens — but the paper's
// guarantee may not.
func TestSuppressionOutcomeEquivalence(t *testing.T) {
	// The ladder is never trimmed under -short: the aggregate traffic
	// assertion below needs the n=16 cells, where the Search savings
	// dominate, because at the toy sizes (8, 12) the suppressed run's
	// longer quiescence tail (the retry-period-aware stability window)
	// can offset the per-round savings.
	spec := Spec{
		Families:     []string{"wheel", "grid", "gnp"},
		Sizes:        []int{8, 12, 16},
		Retry:        []core.RetryPolicy{core.RetryPaper, core.RetrySuppress},
		SeedsPerCell: 2,
		BaseSeed:     42,
	}
	m, err := Engine{}.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	type inst struct {
		family string
		n      int
		idx    int
	}
	type outcome struct {
		seed   int64
		bound  int
		search int64
	}
	off := map[inst]outcome{}
	var onSuppressed, onSearch, offSearch int64
	for _, rr := range m.Runs {
		if rr.Err != "" || rr.Skipped {
			t.Fatalf("run %s[%d]: err=%q skipped=%v", rr.Cell, rr.SeedIndex, rr.Err, rr.Skipped)
		}
		if !rr.Converged || !rr.Legitimate || !rr.WithinBound {
			t.Fatalf("run %s[%d] (retry=%s): converged=%v legitimate=%v deg=%d bound=%d",
				rr.Cell, rr.SeedIndex, rr.Retry(), rr.Converged, rr.Legitimate,
				rr.MaxDegree, rr.DegreeBound)
		}
		if rr.Suppress == "" {
			if rr.SearchesSuppressed != 0 {
				t.Fatalf("run %s[%d]: suppression counter %d moved under the paper policy",
					rr.Cell, rr.SeedIndex, rr.SearchesSuppressed)
			}
			off[inst{rr.Family, rr.N, rr.SeedIndex}] = outcome{rr.Seed, rr.DegreeBound, rr.SearchMessages}
			offSearch += rr.SearchMessages
		} else {
			onSuppressed += int64(rr.SearchesSuppressed)
			onSearch += rr.SearchMessages
		}
	}
	for _, rr := range m.Runs {
		if rr.Suppress == "" {
			continue
		}
		twin, ok := off[inst{rr.Family, rr.N, rr.SeedIndex}]
		if !ok {
			t.Fatalf("no unsuppressed twin for %s[%d]", rr.Cell, rr.SeedIndex)
		}
		if twin.seed != rr.Seed {
			t.Fatalf("suppression axis changed the run seed: %s[%d]: %d vs %d",
				rr.Cell, rr.SeedIndex, twin.seed, rr.Seed)
		}
		if twin.bound != rr.DegreeBound {
			t.Fatalf("%s[%d]: degree bracket %d with suppression vs %d without",
				rr.Cell, rr.SeedIndex, rr.DegreeBound, twin.bound)
		}
	}
	if onSuppressed == 0 {
		t.Fatal("suppression-on sweep pruned nothing")
	}
	if onSearch >= offSearch {
		t.Fatalf("suppression did not reduce Search traffic: %d on vs %d off", onSearch, offSearch)
	}
}

// Satellite: the suppression counters (and everything else) must be
// deterministic across worker counts — the workers-1-vs-N byte-identical
// JSON regression extended to a suppression-on spec, exactly as the
// original test covers the suppression-off default.
func TestSuppressionDeterminismAcrossWorkers(t *testing.T) {
	spec := tinySpec()
	spec.Retry = []core.RetryPolicy{core.RetryPaper, core.RetrySuppress}
	render := func(workers int) []byte {
		m, err := Engine{Workers: workers}.Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("suppression-on JSON differs between 1 and 8 workers")
	}
	if !bytes.Contains(serial, []byte(`"searchesSuppressed"`)) {
		t.Fatal("suppression-on runs serialized no suppression counters")
	}
}

// The scale sweep's committed suppression section: every ladder size is
// paired with its suppression-on twin on the identical instance, the
// twin passes the outcome-equivalence gate inside ScaleSweep, and the
// Search-kind reduction is real. The committed BENCH_scale.json carries
// the full n=256/512/1024 ladder (acceptance: >= 2x at n=512); this
// regression keeps the machinery honest at test-friendly sizes.
func TestScaleSweepSuppressionComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep")
	}
	rep, err := ScaleSweep(ScaleSpec{Sizes: []int{32, 48}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suppression) != len(rep.Cells) {
		t.Fatalf("%d suppression pairs for %d cells", len(rep.Suppression), len(rep.Cells))
	}
	for i, s := range rep.Suppression {
		c := rep.Cells[i]
		if s.N != c.N || s.Seed != c.Seed {
			t.Fatalf("pair %d misaligned: n=%d/%d seed=%d/%d", i, s.N, c.N, s.Seed, c.Seed)
		}
		if s.SearchMessagesOff != c.SearchMessages || s.MessagesOff != c.Messages {
			t.Fatalf("pair %d off columns diverge from the ladder run", i)
		}
		if !s.WithinBound || s.DegreeBound != c.DegreeBound {
			t.Fatalf("pair %d: suppressed run outside the paired bracket: %+v", i, s)
		}
		if s.SearchesSuppressed <= 0 || s.SearchReduction <= 1.5 {
			t.Fatalf("pair %d: suppression ineffective: suppressed=%d reduction=%.2f",
				i, s.SearchesSuppressed, s.SearchReduction)
		}
	}
}

// The suppression policy follows the backend-axis labeling contract on
// the retry axis: paper cells keep the empty (JSON-omitted) label,
// suppress cells are marked "on" in Suppress and nowhere else,
// Cell.Retry reads the policy back, seeds exclude the axis, and a
// duplicate policy is rejected.
func TestSuppressionAxisExpansion(t *testing.T) {
	spec := Spec{
		Families: []string{"wheel"},
		Sizes:    []int{8},
		Retry:    []core.RetryPolicy{core.RetryPaper, core.RetrySuppress},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(runs))
	}
	if runs[0].Suppress != "" || runs[1].Suppress != "on" {
		t.Fatalf("labels %q/%q, want \"\"/\"on\"", runs[0].Suppress, runs[1].Suppress)
	}
	if runs[0].Backoff != "" || runs[1].Backoff != "" {
		t.Fatalf("backoff labels %q/%q on a paper/suppress axis", runs[0].Backoff, runs[1].Backoff)
	}
	if runs[0].Seed != runs[1].Seed {
		t.Fatalf("suppression axis changed the seed: %d vs %d", runs[0].Seed, runs[1].Seed)
	}
	if runs[0].Retry() != core.RetryPaper || runs[1].Retry() != core.RetrySuppress {
		t.Fatalf("Cell.Retry() read back %s/%s", runs[0].Retry(), runs[1].Retry())
	}
	if _, err := (Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Retry: []core.RetryPolicy{core.RetrySuppress, core.RetrySuppress}}).Expand(); err == nil {
		t.Fatal("duplicate suppression mode accepted")
	}
}

// The full retry axis: three policies expand to three runs labelled
// ("",""), ("on","") and ("","on") on one seed, Cell.Retry reads each
// policy back, and an unknown policy is rejected.
func TestRetryAxisExpansion(t *testing.T) {
	policies := []core.RetryPolicy{core.RetryPaper, core.RetrySuppress, core.RetryBackoff}
	spec := Spec{Families: []string{"wheel"}, Sizes: []int{8}, Retry: policies}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	labels := [][2]string{{"", ""}, {"on", ""}, {"", "on"}}
	for i, r := range runs {
		if got := [2]string{r.Suppress, r.Backoff}; got != labels[i] {
			t.Fatalf("run %d (%s): labels %q, want %q", i, policies[i], got, labels[i])
		}
		if r.Retry() != policies[i] {
			t.Fatalf("run %d: Cell.Retry() = %s, want %s", i, r.Retry(), policies[i])
		}
		if r.Seed != runs[0].Seed {
			t.Fatalf("retry axis changed the seed: %d vs %d", r.Seed, runs[0].Seed)
		}
	}
	if _, err := (Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Retry: []core.RetryPolicy{core.RetryPolicy(7)}}).Expand(); err == nil {
		t.Fatal("unknown retry policy accepted")
	}
}
