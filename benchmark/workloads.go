package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/scenario"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: a repetition starts when the previous one has finished.
type workload interface {
	name() string
	// setup builds every input from seed and reports how much of its time
	// went into graph generation. It may be called several times; each
	// call replaces the inputs.
	setup(seed int64) (graphBuild time.Duration, err error)
	// rep executes one untraced repetition.
	rep() ([]outcome, error)
	// traced executes one repetition with the layer boundaries timed.
	traced(tr *tracer) ([]outcome, error)
	// workers is how many runs execute at once.
	workers() int
	// deterministic reports whether every repetition replays the first
	// exactly (the simulator backend).
	deterministic() bool
}

// size selects a workload's scale: the command runs fullSize, the test
// toySize.
type size int

const (
	fullSize size = iota
	toySize
)

func workloadNames() []string { return []string{"recover", "closure", "matrix", "tcp"} }

// newWorkload returns the named workload at the given scale.
func newWorkload(name string, sz size) (workload, bool) {
	toy := sz == toySize
	pick := func(full, small int) int {
		if toy {
			return small
		}
		return full
	}
	both := func(int) []harness.Variant {
		return []harness.Variant{harness.VariantCore, harness.VariantLiteral}
	}
	// lastLiteral runs the core variant on every instance but the last,
	// which runs the literal one, so both protocols' layers are measured.
	lastLiteral := func(instances int) func(int) []harness.Variant {
		return func(i int) []harness.Variant {
			if i == instances-1 {
				return []harness.Variant{harness.VariantLiteral}
			}
			return []harness.Variant{harness.VariantCore}
		}
	}
	switch name {
	case "recover":
		// Corrupt-start recovery on the compat core: the protocol's Tick and
		// Receive handlers do most of the work. Many small instances per
		// repetition, because one instance's cost varies several-fold with
		// the draw and the repetition's totals must not.
		return &runList{
			id: name, n: pick(32, 16), instances: pick(64, 2), variants: both,
			spec: harness.RunSpec{Start: harness.StartCorrupt, Scheduler: harness.SchedSync, Engine: harness.EngineCompat},
		}, true
	case "closure":
		// Closure at scale: the event core parks every node of a
		// degree-2 path start, so preload and the legitimacy check
		// dominate and the handlers barely run. An even number of runs
		// keeps two workers evenly loaded.
		return &runList{
			id: name, n: pick(16384, 24), instances: 4, variants: lastLiteral(4),
			spec: harness.RunSpec{Start: harness.StartPath, Scheduler: harness.SchedSync, Engine: harness.EngineEvent},
		}, true
	case "matrix":
		return newMatrix(toy), true
	case "tcp":
		// The loopback tcp cluster holding a converged configuration (the
		// degree-2 path start): every node gossips over real sockets at
		// the tick rate until the detector certifies the window. Corrupt
		// or Fürer–Raghavachari starts certify after a time that varies
		// several-fold with the draw and the socket timing; this one
		// certifies after the window alone, so the transport's cost per
		// message is what moves. n=64 uses under half of two vCPUs, so the
		// cluster keeps its tick when the host is busy; at n=128 it used
		// four fifths of them and fell behind, and its message count
		// spread by 0.11 across processes.
		return &runList{
			id: name, n: pick(64, 8), instances: 2, variants: lastLiteral(2),
			spec: harness.RunSpec{
				Start:   harness.StartPath,
				Backend: harness.BackendTCP,
				Tuning: harness.BackendTuning{
					Tick:         2 * time.Millisecond,
					BatchSize:    16,
					BatchMaxWait: 6 * time.Millisecond,
					Deadline:     30 * time.Second,
				},
			},
		}, true
	}
	return nil, false
}

// instanceSeed derives the i-th instance seed of a workload from --seed
// with splitmix64, so neighbouring --seed values draw unrelated instances.
func instanceSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xd1b54a32d192ed03
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// plannedRun is one harness.Run of a repetition.
type plannedRun struct {
	label string
	spec  harness.RunSpec
}

// runList runs a fixed list of harness.Run specs on ring+chords instances
// (recover, closure, tcp). Simulator runs share one worker per CPU, as the
// scenario engine's pool does: a host that stalls one vCPU then slows the
// repetition by the two vCPUs' mean speed, not by the stalled one's. tcp
// clusters run one at a time, because each one's nodes already run on
// every CPU.
type runList struct {
	id        string
	n         int
	instances int
	variants  func(instance int) []harness.Variant
	spec      harness.RunSpec // everything but Graph, Seed and Variant
	runs      []plannedRun
}

func (w *runList) name() string        { return w.id }
func (w *runList) deterministic() bool { return w.spec.Backend != harness.BackendTCP }

func (w *runList) workers() int {
	if w.spec.Backend == harness.BackendTCP {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

func (w *runList) setup(seed int64) (time.Duration, error) {
	fam := graph.MustFamily("ring+chords")
	var build time.Duration
	w.runs = w.runs[:0]
	for i := 0; i < w.instances; i++ {
		s := instanceSeed(seed, i)
		t := time.Now()
		g := fam.Build(w.n, rand.New(rand.NewSource(s)))
		build += time.Since(t)
		for _, v := range w.variants(i) {
			spec := w.spec
			spec.Graph, spec.Seed, spec.Variant = g, s, v
			w.runs = append(w.runs, plannedRun{label: runLabel(spec), spec: spec})
		}
	}
	return build, nil
}

// rep runs every planned run once, bracketed by reference readings
// (speed.go): a simulator run's on its worker's thread, a tcp cluster's,
// whose nodes run on every CPU, on every CPU at once.
func (w *runList) rep() ([]outcome, error) {
	outs := make([]outcome, len(w.runs))
	gauges := make([]gauge, w.workers())
	cpus := allowedCPUs()
	for k := range gauges {
		gauges[k].measure = refTime
		if !w.deterministic() {
			gauges[k].measure = func() time.Duration { return refAllCPUs(cpus) }
		}
	}
	pool(len(w.runs), w.workers(), func(k, i int) {
		r := w.runs[i]
		var res harness.Result
		var err error
		ref := gauges[k].around(func() { res, err = harness.Run(r.spec) })
		if err != nil {
			outs[i] = outcome{label: r.label, err: err.Error(), maxDeg: -1}
			return
		}
		outs[i] = outcomeOf(r.label, r.spec, res)
		outs[i].ref = ref
	})
	return outs, nil
}

func (w *runList) traced(tr *tracer) ([]outcome, error) {
	return tracedPool(tr, len(w.runs), w.workers(), func(t *tracer, i int) outcome {
		r := w.runs[i]
		run := t.open(i)
		defer t.close(run, r.label)
		if r.spec.Backend == harness.BackendTCP {
			return t.tcpRun(run, r.spec, r.label)
		}
		return t.simRun(run, r.spec, r.label)
	}), nil
}

// pool calls f(k, i) for every i in [0, n) on workers goroutines, k being
// the worker's index, and returns once every call has.
func pool(n, workers int, f func(k, i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range idx {
				f(k, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// tracedPool runs f for every i in [0, n) on a pool of workers, each with
// its own fork of tr, and merges the forks into tr.
func tracedPool(tr *tracer, n, workers int, f func(t *tracer, i int) outcome) []outcome {
	outs := make([]outcome, n)
	forks := make([]*tracer, workers)
	for k := range forks {
		forks[k] = tr.fork()
	}
	pool(n, workers, func(k, i int) { outs[i] = f(forks[k], i) })
	for _, t := range forks {
		tr.merge(t)
	}
	return outs
}

// runLabel names a run in failure reports.
func runLabel(s harness.RunSpec) string {
	backend := s.Backend
	if backend == "" {
		backend = harness.BackendSim
	}
	return fmt.Sprintf("ring+chords/n=%d/%s/%s/%s/%s/seed=%d",
		s.Graph.N(), s.Start, s.Variant, backend, s.Engine, s.Seed)
}

// outcomeOf judges a harness result. A wall-clock run counts as converged
// only with a certificate, and without one its time counts at the
// deadline. Its timers pace it, so its wall time is not rescaled.
func outcomeOf(label string, spec harness.RunSpec, res harness.Result) outcome {
	o := outcome{
		label:     label,
		converged: res.Converged,
		legit:     res.Legit.OK(),
		maxDeg:    -1,
		rounds:    res.Rounds,
		messages:  res.TotalMessages,
		wall:      res.WallTime,
		g:         spec.Graph,
	}
	if res.Tree != nil {
		o.maxDeg = res.Tree.MaxDegree()
	}
	if spec.Backend == harness.BackendTCP {
		o.paced = true
		o.converged = res.Cert != nil && o.legit
		if res.Cert == nil {
			o.wall = res.Deadline
		}
	}
	return o
}

// matrixWorkload executes scenario matrices on the engine's worker pool:
// many short runs, so each run's fixed costs (graph build, the mdstseq
// oracle, network build) and the pool's tail weigh in, and the handlers
// run under lossy links, churn and every scheduler.
type matrixWorkload struct {
	plan   func(seed int64) []scenario.Spec
	specs  []scenario.Spec // the current seed's plan
	runs   []scenario.Run  // specs expanded, in execution order
	graphs []*graph.Graph  // graphs[i] is runs[i]'s instance
	faults map[string]scenario.FaultModel
}

func newMatrix(toy bool) *matrixWorkload {
	// Sparse families only: from a corrupt start the core variant can
	// fail to stabilize on small dense gnp and geometric draws (about 1 in
	// 450 runs under the sync scheduler, more under the adversarial one),
	// and a benchmark run must not fail. ring+chords, 4-regular and grid
	// cells had no failure in 150 seeds per cell.
	fams := []string{"ring+chords", "regular", "grid"}
	sizes := []int{12, 16}
	all := []scenario.FaultModel{scenario.NoFault{}, scenario.Lossy{Rate: 0.05},
		scenario.CorruptRandom{K: 3}, scenario.Churn{Op: harness.OpAddEdge}}
	some := []scenario.FaultModel{scenario.NoFault{}, scenario.CorruptRandom{K: 3}}
	syncAsync := []harness.SchedulerKind{harness.SchedSync, harness.SchedAsync}
	perCell := 6
	if toy {
		fams, sizes, all, some, perCell = fams[:1], sizes[:1], all[:1], some[:1], 1
		syncAsync = syncAsync[:1]
	}
	w := &matrixWorkload{faults: map[string]scenario.FaultModel{}}
	for _, f := range all {
		w.faults[f.Name()] = f
	}
	w.plan = func(seed int64) []scenario.Spec {
		specs := []scenario.Spec{
			{Families: fams, Sizes: sizes, Schedulers: syncAsync, Faults: all},
			// The literal variant has no churn executor.
			{Families: fams, Sizes: sizes, Schedulers: syncAsync, Faults: some,
				Variants: []harness.Variant{harness.VariantLiteral}},
		}
		if !toy {
			// The adversarial scheduler only on ring+chords, the family
			// with the most failure-free runs behind it: on denser draws
			// it can starve the protocol until the round budget runs out.
			specs = append(specs, scenario.Spec{Families: fams[:1], Sizes: sizes,
				Schedulers: []harness.SchedulerKind{harness.SchedAdversarial}, Faults: all})
		}
		// Each spec is executed one (family, size) slice at a time, a tenth
		// to a fifth of a second each, so the reference readings between
		// slices follow the host's speed (see speed.go). Run seeds depend
		// on the family, size, base seed and seed index only, so the slices
		// run exactly the runs of the whole spec, in its order.
		var parts []scenario.Spec
		for _, spec := range specs {
			spec.SeedsPerCell = perCell
			spec.BaseSeed = seed
			for _, fam := range spec.Families {
				for _, n := range spec.Sizes {
					s := spec
					s.Families, s.Sizes = []string{fam}, []int{n}
					parts = append(parts, s)
				}
			}
		}
		return parts
	}
	return w
}

func (w *matrixWorkload) name() string        { return "matrix" }
func (w *matrixWorkload) workers() int        { return runtime.GOMAXPROCS(0) }
func (w *matrixWorkload) deterministic() bool { return true }

func (w *matrixWorkload) setup(seed int64) (time.Duration, error) {
	w.specs = w.plan(seed)
	w.runs, w.graphs = w.runs[:0], w.graphs[:0]
	var build time.Duration
	for _, spec := range w.specs {
		runs, err := spec.Expand()
		if err != nil {
			return 0, err
		}
		for _, r := range runs {
			t := time.Now()
			g, err := scenario.BuildGraph(r)
			if err != nil {
				return 0, err
			}
			build += time.Since(t)
			w.graphs = append(w.graphs, g)
		}
		w.runs = append(w.runs, runs...)
	}
	return build, nil
}

// rep executes every slice of the plan on the engine's pool. The pool is
// the engine's own, so the reference readings are taken on every CPU at
// once between slices, and a slice's runs are rescaled by the readings
// around it.
func (w *matrixWorkload) rep() ([]outcome, error) {
	outs := make([]outcome, 0, len(w.runs))
	cpus := allowedCPUs()
	g := gauge{measure: func() time.Duration { return refAllCPUs(cpus) }}
	for _, spec := range w.specs {
		var m *scenario.Matrix
		var err error
		ref := g.around(func() { m, err = scenario.Engine{Workers: w.workers()}.Execute(spec) })
		if err != nil {
			return nil, err
		}
		for _, rr := range m.Runs {
			outs = append(outs, outcome{
				label:     fmt.Sprintf("%s/seed=%d", rr.Cell, rr.Seed),
				err:       rr.Err,
				skipped:   rr.Skipped,
				lossy:     strings.HasPrefix(rr.Fault, "lossy"),
				converged: rr.Converged,
				legit:     rr.Legitimate,
				maxDeg:    rr.MaxDegree,
				bound:     rr.DegreeBound,
				rounds:    rr.Rounds,
				messages:  rr.Messages,
				wall:      rr.Wall,
				ref:       ref,
			})
		}
	}
	return outs, nil
}

// traced replays the matrix's runs on a pool of the same size, each worker
// with its own tracer. Runs under a churn fault go through the scenario
// executor untraced inside (it builds its own networks); the rest run on
// the traced simulator driver.
func (w *matrixWorkload) traced(tr *tracer) ([]outcome, error) {
	return tracedPool(tr, len(w.runs), w.workers(), w.tracedRun), nil
}

// tracedRun replays scenario's per-run executor for run i.
func (w *matrixWorkload) tracedRun(tr *tracer, i int) outcome {
	r := w.runs[i]
	label := fmt.Sprintf("%s/seed=%d", r.Cell, r.Seed)
	start, err := harness.ParseStartMode(r.Start)
	if err != nil {
		return outcome{label: label, err: err.Error(), maxDeg: -1}
	}
	fault := w.faults[r.Fault]
	base := harness.RunSpec{
		Graph:     w.graphs[i],
		Scheduler: harness.SchedulerKind(r.Scheduler),
		Start:     start,
		Variant:   harness.Variant(r.Variant),
		Seed:      r.Seed,
	}
	run := tr.open(i)
	defer tr.close(run, label)
	// The engine draws the instance and the fault from one RNG seeded
	// with the run seed; replay the draw so the fault sees the same
	// stream.
	rng := rand.New(rand.NewSource(r.Seed))
	tr.phase(run, "graph.build", func(int) { graph.MustFamily(r.Family).Build(r.N, rng) })

	var o outcome
	if ex, ok := fault.(scenario.Executor); ok {
		var res harness.Result
		tr.phase(run, "harness.churn", func(int) { res, err = ex.Execute(base, rng) })
		switch {
		case errors.Is(err, scenario.ErrNotApplicable):
			return outcome{label: label, skipped: true, maxDeg: -1}
		case err != nil:
			return outcome{label: label, err: err.Error(), maxDeg: -1}
		}
		o = outcomeOf(label, base, res)
		if res.Tree != nil {
			o.g = res.Tree.Graph() // churn re-stabilizes on a mutated graph
		}
	} else {
		spec, err := fault.Apply(base, rng)
		if err != nil {
			return outcome{label: label, err: err.Error(), maxDeg: -1}
		}
		o = tr.simRun(run, spec, label)
		o.lossy = spec.DropRate > 0
	}
	// The engine computes each run's bracket as part of the run.
	tr.phase(run, "mdstseq.approx", func(int) { o.bound = mdstseq.Approximate(o.g).MaxDegree() + 1 })
	return o
}
