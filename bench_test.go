package mdst

// One benchmark per experiment table of internal/benchtab (E1–E11), plus
// micro-benchmarks of the hot substrates and the scenario-matrix
// engine. Each experiment bench runs one complete workload cell per
// iteration; `go test -bench=. -benchmem` regenerates every number the
// experiment tables are built from (at a reduced sweep — cmd/mdstbench
// and cmd/mdstmatrix run the full sweeps). The sweep-shaped experiments
// execute through internal/scenario, so these benchmarks exercise the
// engine's worker sharding as well.

import (
	"fmt"
	"math/rand"
	"testing"

	"mdst/internal/benchtab"
	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/scenario"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

func benchSweep() benchtab.SweepSpec {
	return benchtab.SweepSpec{Sizes: []int{16, 24}, Seeds: 1, Sched: harness.SchedSync}
}

func benchFamilies() []graph.Family {
	return []graph.Family{
		graph.MustFamily("ring+chords"),
		graph.MustFamily("gnp"),
		graph.MustFamily("ham-augmented"),
	}
}

// BenchmarkE1DegreeQuality regenerates the Theorem 2 table.
func BenchmarkE1DegreeQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchtab.E1DegreeQuality(benchSweep(), benchFamilies())
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				b.Fatalf("Theorem 2 violated: %v", row)
			}
		}
	}
}

// BenchmarkE2Convergence regenerates the Lemma 5 rounds table.
func BenchmarkE2Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E2Convergence(benchSweep(), benchFamilies())
	}
}

// BenchmarkE3Memory regenerates the O(δ log n) memory table.
func BenchmarkE3Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E3Memory(benchSweep(), benchFamilies())
	}
}

// BenchmarkE4MessageLength regenerates the O(n log n) buffer table.
func BenchmarkE4MessageLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E4MessageLength(benchSweep(), benchFamilies())
	}
}

// BenchmarkE5FaultRecovery regenerates the Definition 1 recovery series.
func BenchmarkE5FaultRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E5FaultRecovery(20, 1, harness.SchedSync)
	}
}

// BenchmarkE6Baselines regenerates the baseline comparison table.
func BenchmarkE6Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E6Baselines(benchSweep(), benchFamilies())
	}
}

// BenchmarkE7Ablations regenerates the policy ablation table.
func BenchmarkE7Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E7Ablations(16, 1)
	}
}

// BenchmarkE8TargetedFaults regenerates the targeted-fault extension
// table.
func BenchmarkE8TargetedFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E8TargetedFaults("gnp", 16, 1, harness.SchedSync)
	}
}

// BenchmarkE9LossyLinks regenerates the lossy-link extension table.
func BenchmarkE9LossyLinks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E9LossyLinks("gnp", 14, 1)
	}
}

// BenchmarkE10Churn regenerates the topology-churn extension table.
func BenchmarkE10Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchtab.E10Churn("gnp", 14, 1, harness.SchedSync)
	}
}

// BenchmarkE11Choreography regenerates the exchange-choreography
// ablation table (core S3 chain vs the paper's literal Remove/Back).
func BenchmarkE11Choreography(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchtab.E11Choreography([]int{14}, 1, harness.SchedSync)
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				b.Fatalf("variant did not reach legitimacy: %v", row)
			}
		}
	}
}

func BenchmarkE12SearchTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := benchtab.E12SearchTraffic("ring+chords", []int{16}, 1, harness.SchedSync)
		for _, row := range tab.Rows {
			if row[len(row)-1] != "true" {
				b.Fatalf("suppression pair outside the degree bracket: %v", row)
			}
		}
	}
}

// BenchmarkLiteralProtocolConvergence measures one full stabilization
// run of the literal exchange (the counterpart of
// BenchmarkProtocolConvergence).
func BenchmarkLiteralProtocolConvergence(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("gnp-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				g := graph.MustFamily("gnp").Build(n, rng)
				res := harness.MustRun(harness.RunSpec{
					Graph: g, Variant: harness.VariantLiteral,
					Scheduler: harness.SchedSync,
					Start:     harness.StartCorrupt, Seed: int64(i),
				})
				if res.Tree == nil {
					b.Fatal("no tree")
				}
			}
		})
	}
}

// BenchmarkProtocolConvergence measures one full stabilization run per
// size (the protocol-level figure of merit behind E2).
func BenchmarkProtocolConvergence(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("gnp-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				g := graph.MustFamily("gnp").Build(n, rng)
				res := harness.MustRun(harness.RunSpec{
					Graph: g, Scheduler: harness.SchedSync,
					Start: harness.StartCorrupt, Seed: int64(i),
				})
				if res.Tree == nil {
					b.Fatal("no tree")
				}
			}
		})
	}
}

// BenchmarkScenarioMatrix measures the scenario engine end to end: a
// 16-run matrix (2 sizes × 2 schedulers × 2 fault models × 2 seeds)
// executed across all CPUs per iteration.
func BenchmarkScenarioMatrix(b *testing.B) {
	spec := scenario.Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{16, 24},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync, harness.SchedAsync},
		Faults:       []scenario.FaultModel{scenario.NoFault{}, scenario.Lossy{Rate: 0.05}},
		SeedsPerCell: 2,
		BaseSeed:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := scenario.Engine{}.Execute(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range m.Cells {
			if !c.WithinBound {
				b.Fatalf("cell %s above degree bound", c.Cell)
			}
		}
	}
}

// BenchmarkScenarioMatrixSerial is the single-worker baseline of
// BenchmarkScenarioMatrix; the ratio of the two is the engine's
// parallel speedup on this machine.
func BenchmarkScenarioMatrixSerial(b *testing.B) {
	spec := scenario.Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{16, 24},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync, harness.SchedAsync},
		Faults:       []scenario.FaultModel{scenario.NoFault{}, scenario.Lossy{Rate: 0.05}},
		SeedsPerCell: 2,
		BaseSeed:     1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := (scenario.Engine{Workers: 1}).Execute(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSweep runs a reduced version of the committed scale
// sweep (cmd/mdstmatrix -scale / make bench -> BENCH_scale.json): the
// incremental-hot-path ladder and the steady-state decay cell with its
// fault recovery. The reported custom metric is the deterministic
// fingerprint-work reduction at the baseline size.
func BenchmarkScaleSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := scenario.ScaleSweep(scenario.ScaleSpec{
			Family: "ring+chords", // protocol-active workload, reduced sizes
			Sizes:  []int{48, 64},
			// The decay cell at the ladder's scale: its default n=256
			// misses the 10x decay bar on ring+chords, where n=48 clears
			// it (13x) and still reaches the deepest backoff tier.
			DecaySizes: []int{48},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Cells {
			if !c.Converged || !c.WithinBound {
				b.Fatalf("scale cell n=%d: converged=%v withinBound=%v", c.N, c.Converged, c.WithinBound)
			}
		}
		if rep.OverheadReduction <= 1 {
			b.Fatalf("incremental fingerprinting did not reduce work: %.2fx", rep.OverheadReduction)
		}
		b.ReportMetric(rep.OverheadReduction, "fp-reduction-x")
	}
}

// BenchmarkFingerprintQuiescence isolates the per-round
// fingerprint+quiescence overhead of the incremental cache: one full
// stabilization run on a seeded workload. The deterministic recompute
// count is reported as a custom metric; hashing every node at every
// call would cost nodes × (rounds + 2) recomputes.
func BenchmarkFingerprintQuiescence(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		var recomputes int64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(7))
			g := graph.MustFamily("ring+chords").Build(96, rng)
			res := harness.MustRun(harness.RunSpec{
				Graph: g, Scheduler: harness.SchedSync,
				Start: harness.StartCorrupt, Seed: 7,
			})
			if res.Tree == nil {
				b.Fatal("no tree")
			}
			recomputes = res.Metrics.FingerprintRecomputes
		}
		b.ReportMetric(float64(recomputes), "fp-recomputes")
	})
}

// BenchmarkSimThroughput measures raw simulator event throughput on a
// ring, where every spanning tree is a path: dmax = 2, no search
// launches and a round is pure gossip (substrate cost floor).
func BenchmarkSimThroughput(b *testing.B) {
	g := graph.Ring(64)
	cfg := core.DefaultConfig(g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := core.BuildNetwork(g, cfg, int64(i))
		net.Run(sim.RunConfig{Scheduler: sim.NewSyncScheduler(), MaxRounds: 50})
	}
}

// BenchmarkFurerRaghavachari measures the centralized baseline.
func BenchmarkFurerRaghavachari(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := graph.RandomGnp(n, 8.0/float64(n), rng)
			for i := 0; i < b.N; i++ {
				tr := spanning.WorstDegreeTree(g, 0)
				mdstseq.FurerRaghavachari(tr)
			}
		})
	}
}

// BenchmarkExactDelta measures the exact solver on small instances.
func BenchmarkExactDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGnp(12, 0.4, rng)
	for i := 0; i < b.N; i++ {
		if _, ok := mdstseq.ExactDelta(g, 0); !ok {
			b.Fatal("budget")
		}
	}
}

// BenchmarkCycleSearch measures the DFS token cost for one fundamental
// cycle on a preloaded path-heavy tree (the dominant message cost).
func BenchmarkCycleSearch(b *testing.B) {
	g := graph.Ring(64)
	cfg := core.DefaultConfig(g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := core.BuildNetwork(g, cfg, int64(i))
		// Form the tree quickly (ring: dmax 2, no reductions fire).
		net.Run(sim.RunConfig{Scheduler: sim.NewSyncScheduler(), MaxRounds: 80})
	}
}

// BenchmarkFundamentalCycle measures the spanning substrate's cycle
// extraction.
func BenchmarkFundamentalCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGnp(128, 0.1, rng)
	tr := spanning.BFSTree(g, 0)
	nte := tr.NonTreeEdges()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := nte[i%len(nte)]
		if len(tr.FundamentalCycle(e)) < 2 {
			b.Fatal("bad cycle")
		}
	}
}

// BenchmarkWilsonTree measures uniform spanning tree sampling.
func BenchmarkWilsonTree(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGnp(128, 0.1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanning.RandomTree(g, 0, rng)
	}
}
