package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/metrics"
)

// Engine executes scenario matrices. The zero value uses GOMAXPROCS
// workers.
type Engine struct {
	// Workers is the number of concurrent run executors (<= 0 means
	// GOMAXPROCS). The worker count never affects results, only wall
	// time: runs are seeded individually and aggregated in matrix order.
	Workers int
}

// RunResult is the outcome of one run of the matrix.
type RunResult struct {
	Run
	// Skipped: the fault model was not applicable to the drawn instance.
	Skipped bool `json:"skipped,omitempty"`
	// Err is a non-empty execution error (the run carries no metrics).
	Err string `json:"err,omitempty"`

	// EffectiveStart is the start mode actually executed. Fault models
	// may override the declared axis (targeted/corrupt/churn faults
	// always begin from a preloaded legitimate configuration); the cell
	// keeps the declared label, this field records the truth.
	EffectiveStart string `json:"effectiveStart"`

	Nodes      int   `json:"nodes"`
	Edges      int   `json:"edges"`
	Converged  bool  `json:"converged"`
	Legitimate bool  `json:"legitimate"`
	TreeValid  bool  `json:"treeValid"`
	FixedPoint bool  `json:"fixedPoint"`
	Rounds     int   `json:"rounds"`
	LastChange int   `json:"lastChange"`
	Messages   int64 `json:"messages"`
	Exchanges  int   `json:"exchanges"`
	Aborts     int   `json:"aborts"`
	Dropped    int64 `json:"dropped"`
	// SearchesSuppressed counts Search launches and token arrivals pruned
	// by the suppression module — zero and omitted from JSON unless the
	// run's cell enabled the suppression axis, so suppression-free matrix
	// output (including the committed PR-2 baseline) is byte-identical.
	SearchesSuppressed int `json:"searchesSuppressed,omitempty"`
	// Corrupted is the number of nodes the fault model corrupted after
	// preloading (targeted and corrupt-k models).
	Corrupted int `json:"corrupted"`
	// MaxDegree is deg(T) of the stabilized tree, or -1 if none formed.
	MaxDegree int `json:"maxDegree"`
	// DegreeBound is the assertable Δ*+1 bracket deg(T_FR)+1 (Δ* <=
	// deg(T_FR), so deg(T) <= Δ*+1 implies deg(T) <= DegreeBound) on the
	// run's final topology.
	DegreeBound int `json:"degreeBound"`
	// WithinBound asserts MaxDegree <= DegreeBound.
	WithinBound bool `json:"withinBound"`

	// Programmatic fields for table renderers (benchtab E3/E4/E11) and
	// the scale sweep. Excluded from JSON so the committed matrix output
	// stays byte-identical with earlier revisions.
	MaxStateBits          int    `json:"-"` // max per-node state bits (E3)
	MaxMsgWords           int    `json:"-"` // largest message, in words (E4)
	MaxMsgKind            string `json:"-"` // kind of that largest message
	BrokenRounds          int    `json:"-"` // rounds without a valid tree (Spec.TrackSafety)
	FingerprintRecomputes int64  `json:"-"` // per-node state hashes for quiescence detection
	SearchMessages        int64  `json:"-"` // Search-kind sends (sim backend; the suppression figure of merit)
	// Events and TailEvents are the event-core figures of merit: total
	// executed simulator events, and how many of them came after the last
	// state change. Tail events divided by the quiescence window bound
	// the per-round work once the frontier has emptied — the sub-linear
	// claim of the event engine (compat cells fill them too, for paired
	// comparison).
	Events     int64 `json:"-"`
	TailEvents int64 `json:"-"`
	// Wall is the run's wall-clock duration — excluded from JSON (the
	// harness.Result json:"-" pattern) so output stays byte-identical
	// across machines; only the wall-clock backends make it meaningful.
	Wall time.Duration `json:"-"`
	// Cert is the quiescence certificate that decided convergence
	// (internal/detect; nil when the run never certified). Excluded from
	// JSON like every cross-run-varying field, so the committed sim
	// matrix baseline stays byte-identical.
	Cert *detect.Certificate `json:"-"`
	// Restarts counts wall-clock driver resumptions after a certified
	// stop that was not legitimate (zero on converging runs).
	Restarts int `json:"-"`
	// Metrics is the run's sampled snapshot stream and AuditChain the
	// hex-rendered mutation hash-chain head (Spec.Metrics); both empty
	// and omitted from JSON when the observability plane is off, so the
	// committed matrix baselines stay byte-identical.
	Metrics    []metrics.Snapshot `json:"metrics,omitempty"`
	AuditChain string             `json:"auditChain,omitempty"`
}

// CellResult aggregates the runs of one cell. Boolean fields hold over
// every completed run (vacuously true when all runs were skipped,
// false when any run errored); averages and maxima are over completed
// runs only.
type CellResult struct {
	Cell
	Runs    int `json:"runs"` // completed runs
	Skipped int `json:"skippedRuns,omitempty"`
	Errors  int `json:"errorRuns,omitempty"`

	Converged   bool    `json:"converged"`
	Legitimate  bool    `json:"legitimate"`
	TreeOK      bool    `json:"treeOK"`
	FixedPoint  bool    `json:"fixedPoint"`
	WithinBound bool    `json:"withinBound"`
	RoundsAvg   float64 `json:"roundsAvg"`
	RoundsMax   int     `json:"roundsMax"`
	MessagesAvg float64 `json:"messagesAvg"`
	ExchangeAvg float64 `json:"exchangesAvg"`
	DroppedAvg  float64 `json:"droppedAvg"`
	// SuppressedAvg is the mean SearchesSuppressed over completed runs —
	// zero and omitted from JSON for suppression-off cells (baseline
	// byte-identity contract).
	SuppressedAvg float64 `json:"searchesSuppressedAvg,omitempty"`
	Corrupted     int     `json:"corrupted"`   // max over runs
	MaxDegree     int     `json:"maxDegree"`   // worst over runs (-1: none)
	DegreeBound   int     `json:"degreeBound"` // max over runs
	Nodes         int     `json:"nodes"`       // max over runs
	Edges         int     `json:"edges"`       // max over runs
}

// Matrix is the executed scenario matrix: the per-cell aggregate table
// plus every per-run result, both in deterministic expansion order.
type Matrix struct {
	TotalRuns int          `json:"totalRuns"`
	Cells     []CellResult `json:"cells"`
	Runs      []RunResult  `json:"runs"`

	// Elapsed and Workers describe the execution, not the results; they
	// are excluded from JSON so output stays byte-identical across
	// machines and worker counts.
	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`
}

// JSON renders the matrix as deterministic indented JSON (stable field
// order, no maps, no timing).
func (m *Matrix) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Execute expands and runs the matrix across the engine's workers.
func (e Engine) Execute(spec Spec) (*Matrix, error) {
	start := time.Now()
	ns := spec.normalized()
	runs, err := ns.Expand()
	if err != nil {
		return nil, err
	}
	faults := make(map[string]FaultModel, len(ns.Faults))
	for _, fm := range ns.Faults {
		faults[fm.Name()] = fm
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]RunResult, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = executeRun(ns, faults[runs[i].Fault], runs[i])
			}
		}()
	}
	for i := range runs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	m := aggregate(results)
	m.Elapsed = time.Since(start)
	m.Workers = workers
	return m, nil
}

// executeRun performs one run: draw the graph from the run seed, apply
// the fault model, execute, and summarize.
func executeRun(spec Spec, fault FaultModel, r Run) RunResult {
	out := RunResult{Run: r, MaxDegree: -1}
	fam, ok := graph.LookupFamily(r.Family)
	if !ok {
		out.Err = fmt.Sprintf("unknown family %q", r.Family)
		return out
	}
	start, err := harness.ParseStartMode(r.Start)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	backend, err := harness.ParseBackend(r.Backend)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	engine, err := harness.ParseEngine(r.Engine)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	rng := rand.New(rand.NewSource(r.Seed))
	g := fam.Build(r.N, rng)
	out.Nodes, out.Edges = g.N(), g.M()

	base := harness.RunSpec{
		Graph:       g,
		Scheduler:   harness.SchedulerKind(r.Scheduler),
		Start:       start,
		Variant:     harness.Variant(r.Variant),
		Seed:        r.Seed,
		MaxRounds:   spec.MaxRounds,
		TrackSafety: spec.TrackSafety,
		Backend:     backend,
		Engine:      engine,
		Tuning:      spec.Tuning,
	}
	if spec.Config != nil {
		base.Config = spec.Config(g.N())
	} else {
		base.Config = core.DefaultConfig(g.N())
	}
	base.Config.Retry = r.Retry()
	var coll *metrics.Collector
	if spec.Metrics {
		stride := g.N()
		if stride < 1 {
			stride = 1
		}
		coll = &metrics.Collector{Every: stride}
		base.Collect = coll
	}

	var res harness.Result
	if ex, isEx := fault.(Executor); isEx {
		// Churn-style executors always begin from a preloaded
		// legitimate configuration.
		out.EffectiveStart = harness.StartLegitimate.String()
		res, err = ex.Execute(base, rng)
		if err == ErrNotApplicable {
			out.Skipped = true
			return out
		}
		if err != nil {
			out.Err = err.Error()
			return out
		}
	} else {
		base, err = fault.Apply(base, rng)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.EffectiveStart = base.Start.String()
		// Upper bound on corrupted nodes: the harness corrupts at most n
		// random nodes, and explicit targets could in principle overlap
		// them (no shipped model sets both).
		corrupted := len(base.CorruptTargets)
		if k := base.CorruptNodes; k > 0 {
			if k > g.N() {
				k = g.N()
			}
			corrupted += k
		}
		if corrupted > g.N() {
			corrupted = g.N()
		}
		out.Corrupted = corrupted
		// An invalid spec (e.g. an out-of-range drop rate) surfaces as the
		// run's Err instead of panicking inside a worker.
		res, err = harness.Run(base)
		if err != nil {
			out.Err = err.Error()
			return out
		}
	}

	out.Converged = res.Converged
	out.Legitimate = res.Legit.OK()
	out.TreeValid = res.Legit.TreeValid
	out.FixedPoint = res.Legit.FixedPoint
	out.Rounds = res.Rounds
	out.LastChange = res.LastChange
	out.Messages = res.TotalMessages
	out.Exchanges = res.Exchanges
	out.Aborts = res.Aborts
	out.Dropped = res.Dropped
	out.SearchesSuppressed = res.SearchesSuppressed
	out.MaxStateBits = res.MaxStateBits
	out.BrokenRounds = res.BrokenRounds
	out.Wall = res.WallTime
	out.Cert = res.Cert
	out.Restarts = res.Restarts
	if coll != nil {
		out.Metrics = coll.Snapshots()
		out.AuditChain = fmt.Sprintf("%016x", res.AuditChain)
	}
	if res.Metrics != nil {
		out.MaxMsgWords = res.Metrics.MaxMsgSize
		out.MaxMsgKind = res.Metrics.MaxMsgSizeKind
		out.FingerprintRecomputes = res.Metrics.FingerprintRecomputes
		out.SearchMessages = res.Metrics.SentByKind[core.KindSearch]
		out.Events = res.Metrics.Events
		out.TailEvents = res.Metrics.Events - res.Metrics.EventsAtLastChange
	}
	if res.Tree != nil {
		finalG := res.Tree.Graph() // churn re-stabilizes on a mutated graph
		out.Nodes, out.Edges = finalG.N(), finalG.M()
		out.MaxDegree = res.Tree.MaxDegree()
		out.DegreeBound = degreeBound(r.Family, finalG, finalG == g)
		out.WithinBound = out.MaxDegree <= out.DegreeBound
	} else {
		out.DegreeBound = degreeBound(r.Family, g, true)
	}
	return out
}

// seqBoundMaxN is the largest instance the per-run Fürer–Raghavachari
// oracle is run on to compute DegreeBound. The oracle's local search is
// polynomial but far from linear (minutes at n=1024 on ring+chords), so
// beyond this size degreeBound falls back to the family's constructive
// Δ* witness where one exists. Every committed baseline sits below the
// cap, so their degreeBound columns keep the oracle's (possibly looser)
// deg(T_FR)+1 value byte for byte.
const seqBoundMaxN = 2048

// degreeBound computes RunResult.DegreeBound for a run on graph g.
// unmutated reports that g is the family-built instance (false after
// churn rewires the topology, which can remove the witness edges).
func degreeBound(family string, g *graph.Graph, unmutated bool) int {
	if unmutated && g.N() > seqBoundMaxN {
		if f, ok := graph.LookupFamily(family); ok && f.CanonicalRing {
			return 3 // Δ*+1 from the canonical-ring witness (Δ* = 2)
		}
	}
	return mdstseq.Approximate(g).MaxDegree() + 1
}

// aggregate folds run results into per-cell rows, preserving expansion
// order.
func aggregate(results []RunResult) *Matrix {
	m := &Matrix{TotalRuns: len(results), Runs: results}
	index := map[Cell]int{}
	for _, rr := range results {
		ci, seen := index[rr.Cell]
		if !seen {
			ci = len(m.Cells)
			index[rr.Cell] = ci
			m.Cells = append(m.Cells, CellResult{
				Cell: rr.Cell, Converged: true, Legitimate: true,
				TreeOK: true, FixedPoint: true, WithinBound: true,
				MaxDegree: -1,
			})
		}
		c := &m.Cells[ci]
		// Instance dimensions are known even for skipped/errored runs
		// (the graph was drawn before the fault applied); aggregate them
		// first so an all-skipped cell still reports its real n and m.
		if rr.Nodes > c.Nodes {
			c.Nodes = rr.Nodes
		}
		if rr.Edges > c.Edges {
			c.Edges = rr.Edges
		}
		if rr.Skipped {
			c.Skipped++
			continue
		}
		if rr.Err != "" {
			// An errored run produced no tree: every quality claim of
			// the cell is false, not vacuously true.
			c.Errors++
			c.Converged = false
			c.Legitimate = false
			c.TreeOK = false
			c.FixedPoint = false
			c.WithinBound = false
			continue
		}
		c.Runs++
		c.Converged = c.Converged && rr.Converged
		c.Legitimate = c.Legitimate && rr.Legitimate
		c.TreeOK = c.TreeOK && rr.TreeValid
		c.FixedPoint = c.FixedPoint && rr.FixedPoint
		c.WithinBound = c.WithinBound && rr.WithinBound
		c.RoundsAvg += float64(rr.LastChange)
		if rr.LastChange > c.RoundsMax {
			c.RoundsMax = rr.LastChange
		}
		c.MessagesAvg += float64(rr.Messages)
		c.ExchangeAvg += float64(rr.Exchanges)
		c.DroppedAvg += float64(rr.Dropped)
		c.SuppressedAvg += float64(rr.SearchesSuppressed)
		if rr.Corrupted > c.Corrupted {
			c.Corrupted = rr.Corrupted
		}
		if rr.MaxDegree > c.MaxDegree {
			c.MaxDegree = rr.MaxDegree
		}
		if rr.DegreeBound > c.DegreeBound {
			c.DegreeBound = rr.DegreeBound
		}
	}
	for i := range m.Cells {
		if n := m.Cells[i].Runs; n > 0 {
			m.Cells[i].RoundsAvg /= float64(n)
			m.Cells[i].MessagesAvg /= float64(n)
			m.Cells[i].ExchangeAvg /= float64(n)
			m.Cells[i].DroppedAvg /= float64(n)
			m.Cells[i].SuppressedAvg /= float64(n)
		}
	}
	return m
}

// RenderTable returns an aligned plain-text rendering of the cell table.
func (m *Matrix) RenderTable() string {
	t := &Table{Columns: []string{"family", "n", "sched", "start", "variant", "backend",
		"engine", "retry", "fault", "runs", "conv", "legit", "rounds(avg)", "rounds(max)",
		"msgs(avg)", "suppr(avg)", "deg", "bound", "within"}}
	for _, c := range m.Cells {
		t.Rows = append(t.Rows, []string{
			c.Family, fmt.Sprintf("%d", c.Nodes), c.Scheduler, c.Start,
			c.Variant, c.BackendName(), c.EngineName(), c.Retry().String(), c.Fault,
			fmt.Sprintf("%d", c.Runs),
			fmt.Sprintf("%v", c.Converged), fmt.Sprintf("%v", c.Legitimate),
			fmt.Sprintf("%.1f", c.RoundsAvg), fmt.Sprintf("%d", c.RoundsMax),
			fmt.Sprintf("%.0f", c.MessagesAvg), fmt.Sprintf("%.0f", c.SuppressedAvg),
			fmt.Sprintf("%d", c.MaxDegree),
			fmt.Sprintf("%d", c.DegreeBound), fmt.Sprintf("%v", c.WithinBound),
		})
	}
	return t.Render()
}

// CSV returns a comma-separated rendering of the cell table.
func (m *Matrix) CSV() string {
	var b strings.Builder
	b.WriteString("family,n,scheduler,start,variant,backend,engine,retry,fault,runs,converged,legitimate,roundsAvg,roundsMax,messagesAvg,searchesSuppressedAvg,maxDegree,degreeBound,withinBound\n")
	for _, c := range m.Cells {
		fmt.Fprintf(&b, "%s,%d,%s,%s,%s,%s,%s,%s,%s,%d,%v,%v,%.2f,%d,%.0f,%.0f,%d,%d,%v\n",
			c.Family, c.Nodes, c.Scheduler, c.Start, c.Variant,
			c.BackendName(), c.EngineName(), c.Retry().String(), c.Fault, c.Runs, c.Converged,
			c.Legitimate, c.RoundsAvg, c.RoundsMax, c.MessagesAvg,
			c.SuppressedAvg, c.MaxDegree, c.DegreeBound, c.WithinBound)
	}
	return b.String()
}
