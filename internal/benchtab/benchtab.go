// Package benchtab generates the experiment tables E1–E12 (rendered
// by cmd/mdstbench): each function sweeps a workload, runs the harness and
// returns a scenario.Table that can be rendered as aligned text or CSV. The
// bench targets in the repository root and cmd/mdstbench are thin
// wrappers over these functions. Every experiment table (E1–E12)
// executes its runs through the internal/scenario matrix engine,
// sharded across all CPUs: the fault injections are the shared
// scenario.FaultModel values rather than per-experiment one-offs, and
// per-run quantities the engine does not serialize (state bits, message
// words, broken rounds) ride on scenario.RunResult's programmatic
// fields. Only the figure-series generators (series.go) drive single
// runs directly: each is one harness.Run with a metrics.Collector, and
// its series is the collector's.
package benchtab

import (
	"fmt"
	"math"
	"math/rand"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/scenario"
	"mdst/internal/spanning"
)

func itoa(v int) string      { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string  { return fmt.Sprintf("%.2f", v) }
func btos(v bool) string     { return fmt.Sprintf("%v", v) }
func log2ceil(n int) float64 { return math.Ceil(math.Log2(float64(n))) }

// Workers caps the scenario-engine parallelism used by this package's
// engine-backed tables (<= 0: GOMAXPROCS). cmd/mdstbench sets it from
// its -workers flag; results never depend on it, only wall time.
var Workers int

// mustExecute runs a matrix on the package engine. The specs built by
// this package are static, so an error is a programmer error — the
// same contract as graph.MustFamily.
func mustExecute(spec scenario.Spec) *scenario.Matrix {
	m, err := scenario.Engine{Workers: Workers}.Execute(spec)
	if err != nil {
		panic("benchtab: " + err.Error())
	}
	return m
}

// SweepSpec controls the shared sweep dimensions.
type SweepSpec struct {
	Sizes []int // requested node counts
	Seeds int   // runs per cell (averaged / maxed as appropriate)
	Sched harness.SchedulerKind
}

// DefaultSweep returns the sweep used by the committed experiment
// outputs: modest sizes so the full suite runs in minutes.
func DefaultSweep() SweepSpec {
	return SweepSpec{Sizes: []int{16, 24, 32, 48}, Seeds: 3, Sched: harness.SchedSync}
}

// E1DegreeQuality checks Theorem 2 across families: the stabilized degree
// versus the exact or bracketed Δ*, with the Δ*+1 bound verdict. The runs
// execute through the scenario engine (one per family × size × seed,
// sharded across all CPUs); the exact Δ* label is re-derived per row by
// rebuilding the run's graph from its seed.
func E1DegreeQuality(sweep SweepSpec, families []graph.Family) *scenario.Table {
	t := &scenario.Table{
		Title:   "E1: degree quality — deg(T) vs Δ*+1 (Theorem 2)",
		Columns: []string{"family", "n", "m", "deg(T)", "deltaStar", "bound", "withinBound"},
		Notes: []string{
			"deltaStar is exact when the branch-and-bound finishes (n <= 20), 2 on canonical-ring families, otherwise bracketed by [LowerBoundDelta, FR]",
			"withinBound asserts deg(T) <= deltaStar+1, with a bracket's upper end for deltaStar (paper Theorem 2)",
		},
	}
	m := mustExecute(scenario.Spec{
		Families:     familyNames(families),
		Sizes:        sweep.Sizes,
		Schedulers:   []harness.SchedulerKind{sweep.Sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: sweep.Seeds,
		BaseSeed:     1000,
	})
	for _, rr := range m.Runs {
		if rr.MaxDegree < 0 {
			t.Rows = append(t.Rows, []string{rr.Family, itoa(rr.Nodes), itoa(rr.Edges),
				"FAIL", "-", "-", "false"})
			continue
		}
		g, err := scenario.BuildGraph(rr.Run)
		if err != nil {
			panic("benchtab: " + err.Error())
		}
		star := mdstseq.DeltaStar(g, graph.MustFamily(rr.Family).CanonicalRing)
		bound := star.Hi + 1
		t.Rows = append(t.Rows, []string{rr.Family, itoa(rr.Nodes), itoa(rr.Edges),
			itoa(rr.MaxDegree), starLabel(star), itoa(bound), btos(rr.MaxDegree <= bound)})
	}
	return t
}

// familyNames projects the registered names of a family slice (the
// scenario engine resolves families by name).
func familyNames(families []graph.Family) []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	return names
}

// starLabel renders a Δ* bracket as a table cell: "2", or "[2..4]".
func starLabel(b mdstseq.Bracket) string {
	if b.Lo == b.Hi {
		return itoa(b.Lo)
	}
	return fmt.Sprintf("[%d..%d]", b.Lo, b.Hi)
}

// E2Convergence measures rounds-to-stabilization against the paper's
// O(m n^2 log n) bound.
func E2Convergence(sweep SweepSpec, families []graph.Family) *scenario.Table {
	t := &scenario.Table{
		Title:   "E2: convergence rounds vs O(m n^2 log n) (Lemma 5)",
		Columns: []string{"family", "n", "m", "rounds", "m*n^2*log2(n)", "ratio(x1e6)"},
		Notes: []string{
			"rounds = last state change under the synchronous scheduler, worst of seeds",
			"ratio should stay bounded (and in practice tiny) as n grows",
		},
	}
	m := mustExecute(scenario.Spec{
		Families:     familyNames(families),
		Sizes:        sweep.Sizes,
		Schedulers:   []harness.SchedulerKind{sweep.Sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: sweep.Seeds,
		BaseSeed:     2000,
	})
	for _, c := range m.Cells {
		worst := c.RoundsMax
		bound := float64(c.Edges) * float64(c.Nodes) * float64(c.Nodes) * log2ceil(c.Nodes)
		t.Rows = append(t.Rows, []string{c.Family, itoa(c.Nodes), itoa(c.Edges),
			itoa(worst), fmt.Sprintf("%.0f", bound), ftoa(float64(worst) / bound * 1e6)})
	}
	return t
}

// E3Memory compares measured per-node state with the paper's O(δ log n).
// The runs execute through the scenario engine (sharded across CPUs);
// each row's δ is re-derived by rebuilding the run's graph from its seed.
func E3Memory(sweep SweepSpec, families []graph.Family) *scenario.Table {
	t := &scenario.Table{
		Title:   "E3: memory — max state bits per node vs δ·ceil(log2 n) (Lemma 5)",
		Columns: []string{"family", "n", "delta", "stateBits", "delta*log2n", "ratio"},
		Notes:   []string{"ratio = stateBits / (delta*ceil(log2 n)); O(δ log n) means bounded ratio"},
	}
	m := mustExecute(scenario.Spec{
		Families:     familyNames(families),
		Sizes:        sweep.Sizes,
		Schedulers:   []harness.SchedulerKind{sweep.Sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: 1,
		BaseSeed:     3000,
	})
	for _, rr := range m.Runs {
		g, err := scenario.BuildGraph(rr.Run)
		if err != nil {
			panic("benchtab: " + err.Error())
		}
		delta := g.MaxDegree()
		ref := float64(delta) * log2ceil(g.N())
		t.Rows = append(t.Rows, []string{rr.Family, itoa(rr.Nodes), itoa(delta),
			itoa(rr.MaxStateBits), fmt.Sprintf("%.0f", ref),
			ftoa(float64(rr.MaxStateBits) / ref)})
	}
	return t
}

// E4MessageLength compares the largest message with the paper's
// O(n log n) buffer claim, one engine-backed run per family × size.
func E4MessageLength(sweep SweepSpec, families []graph.Family) *scenario.Table {
	t := &scenario.Table{
		Title:   "E4: message length — max words vs n (buffer bound O(n log n))",
		Columns: []string{"family", "n", "maxWords", "kind", "words/n"},
		Notes:   []string{"one word = O(log n) bits; the paper's bound is O(n) words per message"},
	}
	m := mustExecute(scenario.Spec{
		Families:     familyNames(families),
		Sizes:        sweep.Sizes,
		Schedulers:   []harness.SchedulerKind{sweep.Sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: 1,
		BaseSeed:     4000,
	})
	for _, rr := range m.Runs {
		t.Rows = append(t.Rows, []string{rr.Family, itoa(rr.Nodes),
			itoa(rr.MaxMsgWords), rr.MaxMsgKind,
			ftoa(float64(rr.MaxMsgWords) / float64(rr.Nodes))})
	}
	return t
}

// E5FaultRecovery measures re-stabilization time after corrupting k nodes
// of a legitimate configuration (Definition 1's convergence). Each fault
// count is a scenario.CorruptRandom cell; cells share graph instances
// (the engine derives seeds from the instance axes only), so the sweep
// is a paired comparison on identical workloads.
func E5FaultRecovery(n int, seeds int, sched harness.SchedulerKind) *scenario.Table {
	t := &scenario.Table{
		Title:   fmt.Sprintf("E5: fault recovery on geometric n=%d — rounds to re-stabilize vs faults", n),
		Columns: []string{"faults", "rounds(avg)", "rounds(max)", "legitimate"},
		Notes:   []string{"faults = nodes with fully randomized state injected into a legitimate configuration"},
	}
	fracs := []float64{0, 0.05, 0.1, 0.25, 0.5, 1.0}
	var faults []scenario.FaultModel
	ks := make([]int, len(fracs))
	seen := map[int]bool{}
	for i, f := range fracs {
		ks[i] = int(math.Round(f * float64(n)))
		if !seen[ks[i]] { // small n can round two fractions to the same k
			seen[ks[i]] = true
			faults = append(faults, scenario.CorruptRandom{K: ks[i]})
		}
	}
	m := mustExecute(scenario.Spec{
		Families:     []string{"geometric"},
		Sizes:        []int{n},
		Schedulers:   []harness.SchedulerKind{sched},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Faults:       faults,
		SeedsPerCell: seeds,
		BaseSeed:     5000,
	})
	byK := map[string]scenario.CellResult{}
	for _, c := range m.Cells {
		byK[c.Fault] = c
	}
	for _, k := range ks {
		c := byK[scenario.CorruptRandom{K: k}.Name()]
		t.Rows = append(t.Rows, []string{itoa(k), ftoa(c.RoundsAvg),
			itoa(c.RoundsMax), btos(c.Legitimate)})
	}
	return t
}

// E6Baselines compares the stabilized distributed tree against an
// arbitrary BFS tree, a random spanning tree, the centralized FR tree and
// (small n) the exact optimum. The protocol runs execute through the
// scenario engine; the centralized baselines are re-derived per row from
// the run's rebuilt graph (the random tree draws from a run-seeded RNG).
func E6Baselines(sweep SweepSpec, families []graph.Family) *scenario.Table {
	t := &scenario.Table{
		Title:   "E6: baselines — tree degree by construction method",
		Columns: []string{"family", "n", "bfs", "random", "worstBFS", "FR", "selfstab", "deltaStar"},
		Notes: []string{
			"bfs/random/worstBFS are non-optimized spanning trees; FR is the centralized Δ*+1 algorithm",
			"selfstab is this paper's protocol, stabilized from a corrupted state",
		},
	}
	m := mustExecute(scenario.Spec{
		Families:     familyNames(families),
		Sizes:        sweep.Sizes,
		Schedulers:   []harness.SchedulerKind{sweep.Sched},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: 1,
		BaseSeed:     6000,
	})
	for _, rr := range m.Runs {
		g, err := scenario.BuildGraph(rr.Run)
		if err != nil {
			panic("benchtab: " + err.Error())
		}
		rng := rand.New(rand.NewSource(rr.Seed ^ 0xba5e))
		bfs := spanning.BFSTree(g, 0).MaxDegree()
		random := spanning.RandomTree(g, 0, rng).MaxDegree()
		worst := spanning.WorstDegreeTree(g, 0).MaxDegree()
		fr := mdstseq.Approximate(g).MaxDegree()
		star := mdstseq.DeltaStar(g, graph.MustFamily(rr.Family).CanonicalRing)
		t.Rows = append(t.Rows, []string{rr.Family, itoa(rr.Nodes), itoa(bfs),
			itoa(random), itoa(worst), itoa(fr), itoa(rr.MaxDegree), starLabel(star)})
	}
	return t
}

// AblationSpec is one configuration variant for E7.
type AblationSpec struct {
	Name  string
	Sched harness.SchedulerKind
	Mut   func(*core.Config)
}

// Ablations returns the standard ablation set of experiment E7.
func Ablations() []AblationSpec {
	return []AblationSpec{
		{"default(sync,patch)", harness.SchedSync, func(c *core.Config) {}},
		{"repair=reset", harness.SchedSync, func(c *core.Config) { c.Repair = core.RepairReset }},
		{"sched=async", harness.SchedAsync, func(c *core.Config) {}},
		{"sched=adversarial", harness.SchedAdversarial, func(c *core.Config) {}},
		{"deblockTTL=1", harness.SchedSync, func(c *core.Config) { c.DeblockTTL = 1 }},
		{"noTieBreak", harness.SchedSync, func(c *core.Config) { c.DeblockTieBreak = false }},
		{"searchPeriod=4", harness.SchedSync, func(c *core.Config) { c.SearchPeriod = 4 }},
		{"searchPeriod=64", harness.SchedSync, func(c *core.Config) { c.SearchPeriod = 64 }},
	}
}

// E7Ablations measures rounds, messages and final degree for each policy
// variant on a fixed workload. One engine-backed matrix per ablation
// (the scheduler and config mutation are spec-wide axes); all ablations
// share graph instances because the engine derives seeds from the
// instance identity only.
func E7Ablations(n int, seeds int) *scenario.Table {
	t := &scenario.Table{
		Title:   fmt.Sprintf("E7: ablations on gnp n=%d — policy vs cost and quality", n),
		Columns: []string{"variant", "rounds(avg)", "messages(avg)", "deg(T)", "legitimate"},
	}
	for _, ab := range Ablations() {
		mut := ab.Mut
		m := mustExecute(scenario.Spec{
			Families:     []string{"gnp"},
			Sizes:        []int{n},
			Schedulers:   []harness.SchedulerKind{ab.Sched},
			Starts:       []harness.StartMode{harness.StartCorrupt},
			SeedsPerCell: seeds,
			BaseSeed:     7000,
			Config: func(n int) core.Config {
				cfg := core.DefaultConfig(n)
				mut(&cfg)
				return cfg
			},
		})
		c := m.Cells[0]
		deg := c.MaxDegree
		if deg < 0 {
			deg = 0
		}
		t.Rows = append(t.Rows, []string{ab.Name,
			ftoa(c.RoundsAvg),
			fmt.Sprintf("%.0f", c.MessagesAvg),
			itoa(deg), btos(c.Legitimate)})
	}
	return t
}

// All runs the full experiment suite with the default sweep and returns
// the tables in order. families defaults to graph.Families().
func All(sweep SweepSpec, families []graph.Family) []*scenario.Table {
	if families == nil {
		families = graph.Families()
	}
	return []*scenario.Table{
		E1DegreeQuality(sweep, families),
		E2Convergence(sweep, families),
		E3Memory(sweep, families),
		E4MessageLength(sweep, families),
		E5FaultRecovery(32, sweep.Seeds, sweep.Sched),
		E6Baselines(sweep, families),
		E7Ablations(24, sweep.Seeds),
		E8TargetedFaults("gnp", 32, sweep.Seeds, sweep.Sched),
		E9LossyLinks("gnp", 24, sweep.Seeds),
		E10Churn("gnp", 24, sweep.Seeds, sweep.Sched),
		E11Choreography([]int{16, 24}, sweep.Seeds, sweep.Sched),
		E12SearchTraffic("gnp", []int{16, 24}, sweep.Seeds, sweep.Sched),
	}
}
