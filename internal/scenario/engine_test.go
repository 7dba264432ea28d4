package scenario

import (
	"bytes"
	"strings"
	"testing"

	"mdst/internal/harness"
)

func tinySpec() Spec {
	return Spec{
		Families:     []string{"gnp", "ring+chords"},
		Sizes:        []int{10, 12},
		Faults:       []FaultModel{NoFault{}, Lossy{Rate: 0.1}},
		SeedsPerCell: 2,
		BaseSeed:     7,
	}
}

func TestExpandShapeAndDeterminism(t *testing.T) {
	spec := tinySpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 2 // families x sizes x faults x seeds
	if len(runs) != want {
		t.Fatalf("expanded %d runs, want %d", len(runs), want)
	}
	again, _ := spec.Expand()
	for i := range runs {
		if runs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, runs[i], again[i])
		}
	}
	// Seeds identify the instance (family, n, seedIndex): cells that
	// differ only in scheduler/start/variant/fault must share seeds —
	// that pairing is what makes fault sweeps same-workload comparisons
	// — while distinct instances must draw distinct seeds.
	type instance struct {
		family string
		n      int
		idx    int
	}
	bySeed := map[int64]instance{}
	byInstance := map[instance]int64{}
	for _, r := range runs {
		inst := instance{r.Family, r.N, r.SeedIndex}
		if prev, ok := byInstance[inst]; ok {
			if prev != r.Seed {
				t.Fatalf("instance %+v drew different seeds %d and %d", inst, prev, r.Seed)
			}
		} else {
			byInstance[inst] = r.Seed
		}
		if prev, ok := bySeed[r.Seed]; ok && prev != inst {
			t.Fatalf("instances %+v and %+v collide on seed %d", prev, inst, r.Seed)
		}
		bySeed[r.Seed] = inst
	}
}

func TestExpandRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{},
		{Families: []string{"no-such-family"}, Sizes: []int{10}},
		{Families: []string{"gnp"}, Sizes: []int{1}},
		{Families: []string{"gnp"}, Sizes: []int{10},
			Faults: []FaultModel{NoFault{}, NoFault{}}},
		{Families: []string{"gnp"}, Sizes: []int{10},
			Schedulers: []harness.SchedulerKind{"asinc"}},
		{Families: []string{"gnp"}, Sizes: []int{10},
			Variants: []harness.Variant{"litteral"}},
	}
	for i, spec := range cases {
		if _, err := spec.Expand(); err == nil {
			t.Fatalf("case %d: bad spec accepted", i)
		}
	}
}

// The event core runs only the sync scheduler: a spec that lists the
// event engine next to another scheduler is rejected before expansion,
// naming the scheduler, instead of failing cell by cell in the workers.
func TestExpandRejectsEventEngineWithoutSync(t *testing.T) {
	spec := Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Engines: []harness.Engine{harness.EngineCompat, harness.EngineEvent}}
	for _, sched := range []harness.SchedulerKind{harness.SchedAsync, harness.SchedAdversarial} {
		spec.Schedulers = []harness.SchedulerKind{harness.SchedSync, sched}
		_, err := spec.Expand()
		if err == nil || !strings.Contains(err.Error(), string(sched)) {
			t.Fatalf("event engine next to %s: error %v, want one naming the scheduler", sched, err)
		}
	}
}

// Satellite: identical scenario specs with identical seeds must produce
// byte-identical aggregated JSON across two executions and across
// serial vs maximally parallel workers (the GOMAXPROCS=1 vs N axis).
func TestDeterminismRegressionJSON(t *testing.T) {
	render := func(workers int) []byte {
		m, err := Engine{Workers: workers}.Execute(tinySpec())
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
		t.Fatal("JSON differs between 1 and 8 workers")
	}
	repeat := render(8)
	if !bytes.Equal(parallel, repeat) {
		t.Fatal("JSON differs across identical executions")
	}
}

func TestEngineCellAggregation(t *testing.T) {
	m, err := Engine{}.Execute(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRuns != 16 || len(m.Runs) != 16 || len(m.Cells) != 8 {
		t.Fatalf("totals: runs=%d cells=%d", m.TotalRuns, len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Runs != 2 {
			t.Fatalf("cell %s: %d completed runs, want 2", c.Cell, c.Runs)
		}
		if !c.Converged || !c.Legitimate || !c.WithinBound {
			t.Fatalf("cell %s failed: conv=%v legit=%v within=%v",
				c.Cell, c.Converged, c.Legitimate, c.WithinBound)
		}
		if c.RoundsAvg <= 0 || c.RoundsMax < int(c.RoundsAvg) {
			t.Fatalf("cell %s: bad rounds aggregation avg=%v max=%d",
				c.Cell, c.RoundsAvg, c.RoundsMax)
		}
	}
	if m.RenderTable() == "" || m.CSV() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTargetedFaultCorruptsRole(t *testing.T) {
	m, err := Engine{}.Execute(Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{12},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Faults:       []FaultModel{Targeted{Role: RoleRoot}, Targeted{Role: RoleParents}},
		SeedsPerCell: 2,
		BaseSeed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if !c.Legitimate {
			t.Fatalf("cell %s did not recover", c.Cell)
		}
		if c.Corrupted < 1 {
			t.Fatalf("cell %s corrupted %d nodes, want >= 1", c.Cell, c.Corrupted)
		}
	}
	// root+children corrupts strictly more nodes than root alone.
	if m.Cells[1].Corrupted <= m.Cells[0].Corrupted {
		t.Fatalf("parents=%d not > root=%d", m.Cells[1].Corrupted, m.Cells[0].Corrupted)
	}
}

func TestChurnFaultReStabilizes(t *testing.T) {
	m, err := Engine{}.Execute(Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{12},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Faults:       []FaultModel{Churn{Op: harness.OpAddEdge}, Churn{Op: harness.OpRemoveTreeEdge}},
		SeedsPerCell: 2,
		BaseSeed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if c.Runs+c.Skipped != 2 || c.Errors != 0 {
			t.Fatalf("cell %s: runs=%d skipped=%d errors=%d", c.Cell, c.Runs, c.Skipped, c.Errors)
		}
		if c.Runs > 0 && !c.Legitimate {
			t.Fatalf("cell %s did not re-stabilize", c.Cell)
		}
	}
}

func TestParseFaultRoundTrips(t *testing.T) {
	for _, name := range []string{"none", "lossy:0.05", "corrupt:4",
		"targeted:root", "targeted:deepest-leaf", "churn:add-edge",
		"churn:remove-tree-edge"} {
		fm, err := ParseFault(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fm.Name() != name {
			t.Fatalf("round trip %q -> %q", name, fm.Name())
		}
	}
	for _, bad := range []string{"lossy:1.5", "lossy:x", "corrupt:-1",
		"targeted:nowhere", "churn:rewire", "bogus"} {
		if _, err := ParseFault(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestBuildGraphMatchesEngineInstance(t *testing.T) {
	spec := Spec{Families: []string{"gnp"}, Sizes: []int{14}, SeedsPerCell: 3}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Engine{}.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range m.Runs {
		g, err := BuildGraph(runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != rr.Nodes || g.M() != rr.Edges {
			t.Fatalf("run %d: rebuilt graph n=%d m=%d, engine saw n=%d m=%d",
				i, g.N(), g.M(), rr.Nodes, rr.Edges)
		}
	}
}
