// Package scenario is the worker-sharded, batched scenario-matrix
// engine: it expands a declarative Spec (graph families × sizes ×
// schedulers × start modes × protocol variants × fault models × seeds)
// into a run matrix, executes the runs across GOMAXPROCS workers with a
// per-run seeded RNG for bit-reproducibility, and aggregates per-cell
// metrics (rounds, messages, exchanges, max degree vs the Δ*+1 bound)
// into a single result table with deterministic JSON output.
//
// Every run's randomness — graph construction, fault placement,
// scheduling — derives from a seed hashed from the cell coordinates and
// the seed index, so results are byte-identical across repeated
// executions and across any worker count; worker sharding only changes
// wall-clock time. internal/benchtab's experiment tables and the
// cmd/mdstmatrix CLI are thin renderers over this engine, and the
// churn/lossy/targeted fault injections are shared FaultModel values
// (fault.go) rather than per-experiment one-offs.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
)

// Spec declares a scenario matrix. Zero-valued axes default to a single
// canonical element (sync scheduler, corrupt start, core variant, no
// fault, one seed), so the minimal spec is Families × Sizes.
type Spec struct {
	// Families names registered graph families (graph.LookupFamily).
	Families []string
	// Sizes are the requested node counts (families may round them).
	Sizes []int
	// Schedulers defaults to [sync].
	Schedulers []harness.SchedulerKind
	// Starts defaults to [StartCorrupt]. Fault models may override the
	// declared mode (targeted/corrupt/churn faults always begin from a
	// preloaded legitimate configuration); the per-run EffectiveStart
	// field records what actually executed.
	Starts []harness.StartMode
	// Variants defaults to [VariantCore].
	Variants []harness.Variant
	// Backends defaults to [BackendSim]. Only the sim backend is
	// deterministic; live and tcp cells execute on the wall clock, so
	// their rounds/messages vary across repeats (the legitimacy and
	// degree-bound claims are what a cross-backend matrix compares).
	Backends []harness.Backend
	// Engines defaults to [EngineCompat]. The engine axis selects the sim
	// backend's execution core (compat full-sweep vs discrete-event
	// frontier scheduling); run seeds exclude it, so [compat, event]
	// yields paired comparisons on identical workloads. The compat label
	// serializes empty, keeping engine-free matrix JSON byte-identical to
	// the committed baselines. Event cells require the sim backend and
	// lossless links (harness.RunSpec.Validate), and the event core runs
	// only the sync scheduler, so a spec with an event engine lists no
	// other.
	Engines []harness.Engine
	// Retry defaults to [core.RetryPaper]: each entry runs its cells
	// under that cycle-search retry policy, written into Config.Retry of
	// every run — overwriting whatever the Config func returned. Run
	// seeds exclude this axis, so [paper, suppress, backoff] yields
	// paired comparisons on identical workloads. Paper cells carry no
	// label, keeping policy-free matrix JSON byte-identical to the
	// committed baselines (see Cell.Suppress and Cell.Backoff).
	Retry []core.RetryPolicy
	// Faults defaults to [NoFault]. Names must be unique.
	Faults []FaultModel
	// SeedsPerCell defaults to 1.
	SeedsPerCell int
	// BaseSeed perturbs every derived run seed; specs differing only in
	// BaseSeed draw disjoint instances.
	BaseSeed int64
	// MaxRounds bounds each run (zero: the harness default).
	MaxRounds int
	// TrackSafety counts rounds without a valid spanning tree in every
	// run (harness.RunSpec.TrackSafety; surfaces as RunResult.BrokenRounds).
	// Costs one tree validation per round — leave off for large matrices.
	TrackSafety bool
	// Config, if non-nil, overrides the protocol configuration per node
	// count (zero Config means the core default). Its Retry field is
	// ignored: the Retry axis sets it.
	Config func(n int) core.Config `json:"-"`
	// Tuning adjusts the wall-clock backends (tick, per-run deadline,
	// tcp frame batching); the sim backend ignores it.
	Tuning harness.BackendTuning `json:"-"`
	// Metrics enables the observability plane on every run: a metrics
	// collector (stride sized to the instance: one snapshot per n
	// rounds/probe epochs) plus the hash-chained audit log, surfaced as
	// RunResult.Metrics and RunResult.AuditChain. Off (the default)
	// keeps every run on its exact pre-metrics path, so the committed
	// JSON baselines stay byte-identical.
	Metrics bool
}

// Cell identifies one aggregation cell of the matrix: every axis except
// the seed index.
type Cell struct {
	Family    string `json:"family"`
	N         int    `json:"n"`
	Scheduler string `json:"scheduler"`
	Start     string `json:"start"`
	Variant   string `json:"variant"`
	// Backend is the execution backend label. The sim default is the
	// empty string (omitted from JSON) so matrices that never leave the
	// simulator serialize exactly as they did before the backend axis
	// existed — the committed PR-2 baseline stays byte-identical.
	Backend string `json:"backend,omitempty"`
	// Engine is the sim execution-core label. The compat default is the
	// empty string (omitted from JSON, same contract as Backend) so
	// matrices that never opt into the event core serialize exactly as
	// before the engine axis existed.
	Engine string `json:"engine,omitempty"`
	// Suppress and Backoff are the retry axis's labels: "on" in Suppress
	// for core.RetrySuppress cells, "on" in Backoff for core.RetryBackoff
	// cells, and both empty (omitted from JSON, same contract as Backend)
	// for core.RetryPaper. Two keys rather than one keep the committed
	// goldens' labels. Cell.Retry reads the policy back.
	Suppress string `json:"suppress,omitempty"`
	Backoff  string `json:"backoff,omitempty"`
	Fault    string `json:"fault"`
}

// Retry returns the cell's retry policy, read back from its labels.
func (c Cell) Retry() core.RetryPolicy {
	switch {
	case c.Backoff != "":
		return core.RetryBackoff
	case c.Suppress != "":
		return core.RetrySuppress
	}
	return core.RetryPaper
}

// BackendName returns the display name of the cell's backend ("sim" for
// the empty default label).
func (c Cell) BackendName() string {
	if c.Backend == "" {
		return string(harness.BackendSim)
	}
	return c.Backend
}

// EngineName returns the display name of the cell's execution core
// ("compat" for the empty default label).
func (c Cell) EngineName() string {
	if c.Engine == "" {
		return string(harness.EngineCompat)
	}
	return c.Engine
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s/n=%d/%s/%s/%s/%s",
		c.Family, c.N, c.Scheduler, c.Start, c.Variant, c.Fault)
	if c.Backend != "" {
		s += "/" + c.Backend
	}
	if c.Engine != "" {
		s += "/" + c.Engine
	}
	if c.Suppress != "" {
		s += "/suppress"
	}
	if c.Backoff != "" {
		s += "/backoff"
	}
	return s
}

// Run is one executable element of the matrix.
type Run struct {
	Cell
	SeedIndex int   `json:"seedIndex"`
	Seed      int64 `json:"seed"`
}

// normalized returns a copy with defaulted axes.
func (s Spec) normalized() Spec {
	if len(s.Schedulers) == 0 {
		s.Schedulers = []harness.SchedulerKind{harness.SchedSync}
	}
	if len(s.Starts) == 0 {
		s.Starts = []harness.StartMode{harness.StartCorrupt}
	}
	if len(s.Variants) == 0 {
		s.Variants = []harness.Variant{harness.VariantCore}
	}
	if len(s.Backends) == 0 {
		s.Backends = []harness.Backend{harness.BackendSim}
	}
	if len(s.Engines) == 0 {
		s.Engines = []harness.Engine{harness.EngineCompat}
	}
	if len(s.Retry) == 0 {
		s.Retry = []core.RetryPolicy{core.RetryPaper}
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultModel{NoFault{}}
	}
	if s.SeedsPerCell <= 0 {
		s.SeedsPerCell = 1
	}
	return s
}

// validate checks the axes of a normalized spec.
func (s Spec) validate() error {
	if len(s.Families) == 0 || len(s.Sizes) == 0 {
		return fmt.Errorf("scenario: spec needs at least one family and one size")
	}
	for _, f := range s.Families {
		if _, ok := graph.LookupFamily(f); !ok {
			return fmt.Errorf("scenario: unknown graph family %q", f)
		}
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("scenario: size %d too small", n)
		}
	}
	// Unknown scheduler and variant names would silently execute as the
	// sync/core defaults while labeling the cell with the bogus name —
	// poison for a reproducibility tool, so reject them here.
	for _, k := range s.Schedulers {
		switch k {
		case harness.SchedSync, harness.SchedAsync, harness.SchedAdversarial:
		default:
			return fmt.Errorf("scenario: unknown scheduler %q", k)
		}
	}
	for _, v := range s.Variants {
		switch v {
		case harness.VariantCore, harness.VariantLiteral, "":
		default:
			return fmt.Errorf("scenario: unknown variant %q", v)
		}
	}
	seenBackend := map[harness.Backend]bool{}
	for _, b := range s.Backends {
		nb, err := harness.ParseBackend(string(b))
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if seenBackend[nb] {
			return fmt.Errorf("scenario: duplicate backend %q", nb)
		}
		seenBackend[nb] = true
	}
	seenEngine := map[harness.Engine]bool{}
	for _, e := range s.Engines {
		ne, err := harness.ParseEngine(string(e))
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if seenEngine[ne] {
			return fmt.Errorf("scenario: duplicate engine %q", ne)
		}
		seenEngine[ne] = true
		if ne == harness.EngineEvent {
			// An event cell on a wall-clock backend or under a scheduler
			// the event core does not have would fail run by run deep in
			// the workers; reject the axis combination up front.
			for _, b := range s.Backends {
				if nb, err := harness.ParseBackend(string(b)); err == nil && nb != harness.BackendSim {
					return fmt.Errorf("scenario: engine %q requires the sim backend (spec also lists %q)", ne, nb)
				}
			}
			for _, k := range s.Schedulers {
				if k != harness.SchedSync {
					return fmt.Errorf("scenario: engine %q runs only the sync scheduler (spec also lists %q)", ne, k)
				}
			}
		}
	}
	seenRetry := map[core.RetryPolicy]bool{}
	for _, p := range s.Retry {
		if _, err := core.ParseRetryPolicy(p.String()); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if seenRetry[p] {
			return fmt.Errorf("scenario: duplicate retry policy %q", p)
		}
		seenRetry[p] = true
	}
	seen := map[string]bool{}
	for _, fm := range s.Faults {
		if fm == nil {
			return fmt.Errorf("scenario: nil fault model")
		}
		if seen[fm.Name()] {
			return fmt.Errorf("scenario: duplicate fault model %q", fm.Name())
		}
		seen[fm.Name()] = true
	}
	return nil
}

// runSeed derives the per-run seed from the instance identity (family,
// size, seed index, base seed) — deliberately NOT from the scheduler,
// start, variant, backend, engine, retry or fault axes.
// Cells that differ only in those axes
// therefore draw the SAME graph instances, so sweeps like "rounds vs
// drop rate" or "recovery cost by fault role" are paired comparisons
// on identical workloads rather than cross-instance noise. The hash —
// not the worker or completion order — is the single source of
// randomness for the run, which is what makes the matrix
// bit-reproducible under any GOMAXPROCS.
func runSeed(base int64, c Cell, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", c.Family, c.N, base, idx)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Expand enumerates the full run matrix in deterministic order (family,
// size, scheduler, start, variant, backend, engine, retry, fault,
// seed).
func (s Spec) Expand() ([]Run, error) {
	ns := s.normalized()
	if err := ns.validate(); err != nil {
		return nil, err
	}
	var runs []Run
	for _, fam := range ns.Families {
		for _, n := range ns.Sizes {
			for _, sched := range ns.Schedulers {
				for _, start := range ns.Starts {
					for _, variant := range ns.Variants {
						if variant == "" {
							variant = harness.VariantCore
						}
						for _, backend := range ns.Backends {
							// The sim default keeps the empty label so
							// sim-only matrices serialize unchanged.
							label := string(backend)
							if backend == harness.BackendSim {
								label = ""
							}
							for _, engine := range ns.Engines {
								// Same contract: the compat default keeps
								// the empty label so engine-free matrices
								// serialize unchanged.
								engLabel := string(engine)
								if engine == harness.EngineCompat {
									engLabel = ""
								}
								for _, retry := range ns.Retry {
									// Same contract: paper cells keep both
									// labels empty so policy-free matrices
									// serialize unchanged.
									var supLabel, boLabel string
									switch retry {
									case core.RetrySuppress:
										supLabel = "on"
									case core.RetryBackoff:
										boLabel = "on"
									}
									for _, fm := range ns.Faults {
										cell := Cell{
											Family:    fam,
											N:         n,
											Scheduler: string(sched),
											Start:     start.String(),
											Variant:   string(variant),
											Backend:   label,
											Engine:    engLabel,
											Suppress:  supLabel,
											Backoff:   boLabel,
											Fault:     fm.Name(),
										}
										for idx := 0; idx < ns.SeedsPerCell; idx++ {
											runs = append(runs, Run{
												Cell:      cell,
												SeedIndex: idx,
												Seed:      runSeed(ns.BaseSeed, cell, idx),
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return runs, nil
}

// BuildGraph reconstructs the exact workload graph of a run: the
// family's builder driven by a fresh RNG seeded with the run seed,
// which is precisely how the engine drew it. Table renderers use this
// to re-derive per-instance quantities (e.g. the exact Δ* label of E1)
// without the engine having to retain every graph.
func BuildGraph(r Run) (*graph.Graph, error) {
	fam, ok := graph.LookupFamily(r.Family)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown graph family %q", r.Family)
	}
	return fam.Build(r.N, rand.New(rand.NewSource(r.Seed))), nil
}
