// Package harness glues the substrates together for experiments: it
// builds a protocol network over a workload graph, optionally corrupts
// the initial configuration, runs the protocol to stabilization,
// verifies the legitimacy predicate and collects the metrics every
// experiment table is built from.
//
// Execution is layered: Run is backend-agnostic orchestration (graph,
// variant resolution, initial configuration, result collection) over
// three interchangeable execution backends — the deterministic seeded
// simulator (BackendSim, the default), the goroutine-per-node CSP
// runtime (BackendLive) and a loopback TCP cluster (BackendTCP). The
// variant axis (the chain exchange vs the paper-literal choreography)
// only picks the node constructor (variantOps), so every (variant ×
// backend) pair shares this one orchestration path.
//
// Every run that stops on quiescence is driven here, by one driver per
// execution model: one simulator loop behind Run and RunOn, and one
// detection loop shared by the live and tcp backends. Callers that
// need an initial configuration Run cannot build (the scenario churn
// executor, the scale sweep's decay cell) hand their network to RunOn,
// so no caller keeps its own round budget or stability window.
//
// A run is observed only through RunSpec.Collect: both drivers feed a
// detect.Detector and build every metrics.Snapshot with one function
// (snapshot), so the figure series, the -metrics exports and the live
// dashboard all read one stream.
package harness

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"mdst/internal/auditlog"
	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/metrics"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// SchedulerKind names a scheduler for table-driven experiments.
type SchedulerKind string

// Scheduler kinds.
const (
	SchedSync        SchedulerKind = "sync"
	SchedAsync       SchedulerKind = "async"
	SchedAdversarial SchedulerKind = "adversarial"
)

// ParseScheduler resolves a scheduler name (sync|async|adversarial); the
// empty string is the sync default.
func ParseScheduler(s string) (SchedulerKind, error) {
	switch k := SchedulerKind(s); k {
	case "":
		return SchedSync, nil
	case SchedSync, SchedAsync, SchedAdversarial:
		return k, nil
	}
	return "", fmt.Errorf("harness: unknown scheduler %q (want sync|async|adversarial)", s)
}

// NewScheduler instantiates the named scheduler; Validate rejects names
// it does not know.
func NewScheduler(kind SchedulerKind) sim.Scheduler {
	switch kind {
	case SchedAsync:
		return sim.NewAsyncScheduler()
	case SchedAdversarial:
		return sim.NewAdversarialScheduler()
	default:
		return sim.NewSyncScheduler()
	}
}

// StartMode selects the initial configuration of a run.
type StartMode int

const (
	// StartClean boots every node as its own fresh root (a correct but
	// arbitrary configuration: the tree must still be built).
	StartClean StartMode = iota
	// StartCorrupt randomizes every variable and neighbor copy at every
	// node (Definition 1's arbitrary configuration).
	StartCorrupt
	// StartLegitimate pre-loads a converged configuration (used by
	// closure tests and fault-recovery experiments).
	StartLegitimate
	// StartPath pre-loads the canonical Hamiltonian-path configuration:
	// the spanning tree parent(i) = i-1 rooted at node 0, with coherent
	// distances and dmax = 2. Only valid on graphs that contain every
	// path edge {i-1, i} (the ring-based families construct them); the
	// preload fails otherwise. Because dmax = 2 is the global optimum,
	// the configuration is a reduction fixed point with the cycle-search
	// module entirely off — the quiet start the event engine's parking
	// (sim.EventProcess) turns into zero steady-state work, which is what
	// makes closure runs at n >= 10^4 tractable.
	StartPath
)

// String returns the stable name used in scenario specs and CLIs.
func (m StartMode) String() string {
	switch m {
	case StartCorrupt:
		return "corrupt"
	case StartLegitimate:
		return "legitimate"
	case StartPath:
		return "path"
	default:
		return "clean"
	}
}

// ParseStartMode resolves a StartMode name (clean|corrupt|legitimate|path).
func ParseStartMode(s string) (StartMode, error) {
	switch s {
	case "clean":
		return StartClean, nil
	case "corrupt":
		return StartCorrupt, nil
	case "legitimate", "legit":
		return StartLegitimate, nil
	case "path":
		return StartPath, nil
	}
	return 0, fmt.Errorf("harness: unknown start mode %q", s)
}

// Variant selects which edge exchange a run's nodes carry out.
type Variant string

// Protocol variants.
const (
	// VariantCore runs core.NewNode: the edge exchange is an ordered
	// chain of single-parent moves, each of which keeps a spanning tree.
	VariantCore Variant = "core"
	// VariantLiteral runs core.NewLiteralNode: the literal
	// Remove/Back/Reverse choreography of the paper's Figures 1-2.
	VariantLiteral Variant = "literal"
)

// RunSpec describes one experiment run.
type RunSpec struct {
	Graph *graph.Graph
	// Config is the node configuration, core.DefaultConfig(n) when zero.
	// Its Retry field selects the cycle-search retry schedule. A
	// non-zero Config must be complete (Validate rejects MaxDist 0), so
	// build it from core.DefaultConfig.
	Config    core.Config
	Variant   Variant // empty means VariantCore
	Scheduler SchedulerKind
	Start     StartMode
	// CorruptNodes: with a pre-loaded start (StartLegitimate, StartPath),
	// the number of nodes to corrupt after pre-loading (fault-recovery
	// experiment E5).
	CorruptNodes int
	// CorruptTargets: with a pre-loaded start, the specific node IDs
	// to corrupt after pre-loading (targeted-fault models pick roles such
	// as the root or a maximum-degree node). Applied before CorruptNodes.
	CorruptTargets []int
	// DropRate enables lossy links: every delivery is independently lost
	// with this probability (the E9 fault model; zero keeps the paper's
	// reliable-link assumption). Sim backend only: the wall-clock
	// backends have no delivery hook to drop at.
	DropRate  float64
	Seed      int64
	MaxRounds int
	// TrackSafety counts rounds in which the parent pointers do not form
	// a single spanning tree (transient breakage under concurrent
	// exchanges, or mid-choreography with the literal exchange).
	// Counting starts at the first round with a valid tree, so the
	// initial formation phase of a corrupted start is excluded. Costs
	// one validation per round. Sim backend only: the wall-clock
	// backends have no round hook. Under
	// EngineEvent only executed rounds are validated — rounds skipped as
	// eventless cannot change the tree, so the count is unaffected, but
	// the per-round hook fires fewer times.
	TrackSafety bool
	// Backend selects the execution target (empty means BackendSim, the
	// deterministic default). See the Backend constants.
	Backend Backend
	// Engine selects the sim backend's execution core (empty means
	// EngineCompat, the full-sweep loop every committed baseline was
	// generated with). EngineEvent runs the discrete-event core —
	// frontier-only scheduling for large n. Sim backend only.
	Engine Engine
	// Tuning adjusts the wall-clock backends; ignored by sim.
	Tuning BackendTuning
	// Collect, when non-nil, streams metrics.Snapshot observations into
	// the collector while the run executes: the sim backend samples its
	// run loop (pure reads of the incremental fingerprint cache — zero
	// extra hashing), the wall-clock backends sample their detection
	// probes. A collected run also records the hash-chained mutation log
	// (internal/auditlog): every accepted tree mutation is chained and
	// the final head is reported in Result.AuditChain. Nil keeps every
	// backend on its exact pre-metrics path and installs no hooks —
	// observability is zero-cost when not sampled.
	Collect *metrics.Collector
}

// backend returns the normalized backend (empty means sim).
func (s RunSpec) backend() Backend {
	if s.Backend == "" {
		return BackendSim
	}
	return s.Backend
}

// engine returns the normalized engine (empty means compat).
func (s RunSpec) engine() Engine {
	if s.Engine == "" {
		return EngineCompat
	}
	return s.Engine
}

// Result is the outcome of one run. The JSON rendering is deterministic
// for the sim backend: wall time — the only field that varies across
// repeats of an identical spec — is excluded via `json:"-"`, as are the
// unserializable Tree and Metrics pointers.
type Result struct {
	// Backend records which execution backend produced the result.
	Backend   Backend `json:"backend"`
	Converged bool    `json:"converged"`
	// Rounds: sim counts asynchronous rounds until quiescence was
	// declared; the wall-clock backends count detection probes — the
	// driver's unit of observation.
	Rounds int `json:"rounds"`
	// LastChange is the round of the last state change (the sim
	// backend's figure of merit). The wall-clock backends have no round
	// clock to stamp changes with, so they mirror Rounds here — cell
	// aggregates then show the driver's observation count instead of a
	// misleading constant zero.
	LastChange int             `json:"lastChange"`
	Legit      core.Legitimacy `json:"legit"`
	Tree       *spanning.Tree  `json:"-"` // nil unless a valid tree was extracted
	Metrics    *sim.Metrics    `json:"-"` // sim backend only
	// TotalMessages is the sum over all kinds. For the wall-clock
	// backends it counts messages accepted by the runtime's send path —
	// live counts inbox accepts, tcp counts outbox accepts (its Dropped
	// counts outbox back-pressure losses).
	TotalMessages int64 `json:"messages"`
	MaxStateBits  int   `json:"maxStateBits"`
	// BrokenRounds counts rounds without a valid spanning tree (only
	// populated when RunSpec.TrackSafety is set).
	BrokenRounds int `json:"brokenRounds,omitempty"`
	// Dropped is the number of deliveries lost to RunSpec.DropRate (sim)
	// or to outbox back-pressure (tcp).
	Dropped int64 `json:"dropped,omitempty"`
	// Exchanges and Aborts are the protocol's completed edge exchanges
	// and staleness-aborted choreography hops (ablation E11 compares
	// them across variants).
	Exchanges int `json:"exchanges"`
	Aborts    int `json:"aborts"`
	// SearchesSuppressed counts Search launches and token arrivals pruned
	// by the suppression module; zero (and omitted from JSON, keeping
	// paper-schedule output byte-identical) unless Config.Retry is
	// core.RetrySuppress or core.RetryBackoff.
	SearchesSuppressed int `json:"searchesSuppressed,omitempty"`
	// Frames counts wire frames flushed by the tcp backend's edge
	// writers; Frames/TotalMessages is the coalescing ratio (1.0 at
	// batch=1 by construction, the BENCH_tcp.json headline below it).
	// Zero for the other backends; excluded from JSON like every
	// wall-clock-shaped counter.
	Frames int64 `json:"-"`
	// WallTime is the run's wall-clock duration — excluded from JSON so
	// serialized results stay byte-identical across machines and reruns.
	WallTime time.Duration `json:"-"`
	// Cert is the quiescence certificate that decided convergence
	// (internal/detect): nil when the run never certified (deadline, or
	// a sim run that hit MaxRounds). Excluded from JSON — the wall-clock
	// backends' certificates vary across repeats, and the committed sim
	// matrix baseline predates certificates.
	Cert *detect.Certificate `json:"-"`
	// Restarts counts how many times a wall-clock driver had to resume
	// execution after a certified-but-not-legitimate stop. Zero on
	// converging runs — the acceptance claim of in-band detection.
	Restarts int `json:"-"`
	// Deadline is the effective wall-clock budget the driver ran under
	// (after Tuning.Budget resolution); zero for the sim backend.
	Deadline time.Duration `json:"-"`
	// AuditChain is the mutation hash-chain head and AuditRecords the
	// number of chained mutations (recorded when RunSpec.Collect is set;
	// zero otherwise). Deterministic for the sim backend; for any
	// backend, two observers of the same mutation sequence produce
	// identical heads.
	// Excluded from JSON like every post-baseline field.
	AuditChain   uint64 `json:"-"`
	AuditRecords int    `json:"-"`
}

// Validate checks the spec invariants that would otherwise blow up deep
// inside a run (sim.SetDropRate panics on out-of-range rates — a bad
// rate used to crash the scenario worker that happened to execute it).
func (s RunSpec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("harness: RunSpec.Graph is nil")
	}
	if s.DropRate < 0 || s.DropRate >= 1 {
		return fmt.Errorf("harness: drop rate %v out of [0,1)", s.DropRate)
	}
	if s.Config != (core.Config{}) && s.Config.MaxDist == 0 {
		// A partial Config (say, only Retry set) would otherwise run as
		// whatever its zero fields mean, not as the default it extends.
		return fmt.Errorf("harness: Config is set but MaxDist is 0; start from core.DefaultConfig")
	}
	switch s.Variant {
	case "", VariantCore, VariantLiteral:
	default:
		return fmt.Errorf("harness: unknown variant %q", s.Variant)
	}
	switch s.Backend {
	case "", BackendSim, BackendLive, BackendTCP:
	default:
		return fmt.Errorf("harness: unknown backend %q", s.Backend)
	}
	switch s.Engine {
	case "", EngineCompat, EngineEvent:
	default:
		return fmt.Errorf("harness: unknown engine %q", s.Engine)
	}
	if _, err := ParseScheduler(string(s.Scheduler)); err != nil {
		return err
	}
	if s.engine() == EngineEvent {
		// Fail loud instead of silently running a different experiment:
		// the engine axis exists only inside the deterministic simulator,
		// and the event core requires reliable links — a dropped gossip
		// message is never re-sent to a parked sender, so lossy runs would
		// lose the stale-view recovery the compat core's always-on gossip
		// provides.
		if s.backend() != BackendSim {
			return fmt.Errorf("harness: engine %q requires the sim backend (got %q)", s.Engine, s.backend())
		}
		if s.DropRate > 0 {
			return fmt.Errorf("harness: DropRate requires the compat engine (event-core nodes park and never re-send lost gossip)")
		}
	}
	if s.backend() != BackendSim {
		// Fail loud instead of silently running a different experiment
		// than the spec (or a matrix cell label) claims: the wall-clock
		// backends have no delivery hook for lossy links, no round hook
		// for safety tracking, no seeded scheduler to vary, and no round
		// bound (Tuning.Deadline is their budget).
		if s.DropRate > 0 {
			return fmt.Errorf("harness: DropRate requires the sim backend (got %q)", s.backend())
		}
		if s.TrackSafety {
			return fmt.Errorf("harness: TrackSafety requires the sim backend (got %q)", s.backend())
		}
		if s.Scheduler != "" && s.Scheduler != SchedSync {
			return fmt.Errorf("harness: scheduler %q requires the sim backend (got %q)", s.Scheduler, s.backend())
		}
		if s.MaxRounds > 0 {
			return fmt.Errorf("harness: MaxRounds requires the sim backend (got %q); bound wall-clock runs with Tuning.Deadline", s.backend())
		}
		// A malformed tuning would otherwise hang a ticker or silently
		// substitute defaults for negative values deep inside a driver.
		if err := s.Tuning.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// QuiesceWindowRounds is the stability window (in asynchronous rounds)
// that quiescence must hold before it is believed: it must cover a full
// search retry period, or a slow-searching configuration is declared
// quiescent before its reduction ever fires. retryPeriod is the
// worst-case spacing between full passes of an equivalent search —
// Config.SearchPeriod for the paper-literal schedule,
// core.Config.EffectiveRetryPeriod() when duplicate pruning may defer
// retries by up to the suppression window. Both drivers derive their
// window from this one formula — the simulator loop (which also drives
// churn re-stabilization through RunOn) and the wall-clock detection
// loop (converted to wall time via the tick period) — so they cannot
// drift apart.
func QuiesceWindowRounds(n, retryPeriod int) int {
	return 2*n + 40 + 2*retryPeriod
}

// Run executes one experiment run on the spec's backend. The error
// reports an invalid spec (see Validate) or — for the TCP backend only —
// a failure of the network substrate itself; protocol execution cannot
// fail.
func Run(spec RunSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	ops := variantFor(spec)
	switch spec.backend() {
	case BackendLive:
		return runLive(spec, ops)
	case BackendTCP:
		return runTCP(spec, ops)
	default:
		return runSim(spec, ops), nil
	}
}

// RunOn drives an already built simulator network exactly as Run drives
// the networks it builds itself: same round budget, stability window,
// per-round hooks (TrackSafety, Collect), certificate and Result.
// It is the second half of a run whose initial configuration Run cannot
// express — the churn executor migrates a legitimate configuration onto
// a mutated graph, the decay cell corrupts a node after a steady-state
// observation phase. net must be built over spec.Graph with core.Node
// processes (core.BuildNetwork, Migrate); the spec's start fields are
// ignored, since net already holds its initial configuration.
func RunOn(spec RunSpec, net *sim.Network) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if spec.backend() != BackendSim {
		return Result{}, fmt.Errorf("harness: RunOn requires the sim backend (got %q)", spec.backend())
	}
	if net.Graph() != spec.Graph {
		return Result{}, fmt.Errorf("harness: RunOn network is not built over RunSpec.Graph")
	}
	return driveSim(spec, variantFor(spec), net, core.NodesOf(net), time.Now()), nil
}

// runSim executes the spec on the deterministic seeded simulator: the
// build step (network and initial configuration), then driveSim. Sim
// results are regression-locked byte for byte by the committed matrix
// baselines in internal/scenario/testdata.
func runSim(spec RunSpec, ops variantOps) Result {
	begin := time.Now()
	net := sim.NewNetwork(spec.Graph, ops.factory, spec.Seed)
	nodes, res0, ok := buildInitial(spec, ops, net.Process)
	if !ok {
		return res0
	}
	return driveSim(spec, ops, net, nodes, begin)
}

// driveSim is the one simulator run loop behind Run and RunOn: it runs
// net from its current configuration to quiescence or the round budget
// and assembles the Result.
func driveSim(spec RunSpec, ops variantOps, net *sim.Network, nodes []*core.Node, begin time.Time) Result {
	g := spec.Graph
	n := g.N()
	if spec.DropRate > 0 {
		net.SetDropRate(spec.DropRate)
	}
	maxRounds := spec.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200*n + 20000
	}
	// The stability window. Static schedules get the one fixed value;
	// with adaptive backoff the requirement is time-varying, so the
	// static floor is the un-backed-off window (base suppression
	// schedule) and windowFn reads the deepest tier currently in effect
	// — a network whose tiers never deepened (or just reset on a fault)
	// certifies on the base window instead of waiting out the cap.
	quiesceRetry := ops.cfg.EffectiveRetryPeriod()
	var windowFn func() int
	if ops.cfg.Retry == core.RetryBackoff {
		quiesceRetry = ops.cfg.PruneWindow()
		windowFn = func() int {
			return QuiesceWindowRounds(n, net.MaxRetryPeriod(quiesceRetry))
		}
	}
	quiesceRounds := QuiesceWindowRounds(n, quiesceRetry)
	kinds := core.ReductionKinds()

	// Per-round hooks compose: safety tracking, audit round stamping and
	// metrics sampling all ride the one OnRound callback (every hook
	// runs; any false return stops the run, as before).
	var hooks []func(int) bool
	broken := 0
	if spec.TrackSafety {
		formed := false
		hooks = append(hooks, func(int) bool {
			if _, err := core.ExtractTree(g, nodes); err != nil {
				if formed {
					broken++
				}
			} else {
				formed = true
			}
			return true
		})
	}
	rec := auditRecorder(spec, nodes)
	if rec != nil {
		hooks = append(hooks, func(r int) bool {
			// OnRound(r) fires after round r completed; mutations observed
			// next belong to round r+1 (round 0 is the recorder's default).
			rec.SetRound(r + 1)
			return true
		})
	}
	var sample func(epoch, fp uint64)
	if collect := spec.Collect; collect != nil {
		// All reads below are pure: LastFingerprint/StateVersions touch
		// neither the fingerprint cache nor its recompute counters, so
		// sampling cannot perturb the committed deterministic baselines.
		// The detector sees one sample per due round, so its window is
		// the quiescence window counted in samples.
		stride := max(collect.Every, 1)
		det := detect.New(detect.Config{
			Window:  (quiesceRounds + stride - 1) / stride,
			Backend: string(BackendSim),
		})
		var lastEpoch uint64
		sample = func(epoch, fp uint64) {
			// Never observe the same epoch twice: a re-sample of an
			// unchanged state would fabricate a complete version-vector
			// fill for a run that merely stopped (MaxRounds).
			if det.Epoch() > 0 && epoch <= lastEpoch {
				return
			}
			lastEpoch = epoch
			byKind := maps.Clone(net.Metrics().SentByKind)
			var sent, pending int64
			for _, k := range kinds {
				sent += byKind[k]
				pending += int64(net.PendingKind(k))
			}
			det.Observe(detect.Sample{
				Versions:       net.StateVersions(),
				Fingerprint:    fp,
				ActiveSent:     sent,
				ActiveReceived: sent - pending,
			})
			prog := det.Progress()
			prog.Epoch = epoch // the round, not the sample count
			s := snapshot(g, prog, byKind, nodes)
			switch ops.cfg.Retry {
			case core.RetrySuppress:
				s.RetryPeriod = ops.cfg.EffectiveRetryPeriod()
			case core.RetryBackoff:
				// Live per-node tiers: the snapshot series records the
				// retry spacing climbing toward the cap as the network
				// goes silent (statically suppressed runs report the flat
				// window).
				s.RetryPeriod = net.MaxRetryPeriod(ops.cfg.EffectiveRetryPeriod())
			}
			collect.Add(s)
		}
		// Epoch 0 is the initial configuration. The run loop re-seeds the
		// fingerprint cache from it only when the first round starts, so
		// its fingerprint is combined here from the nodes' own hashes,
		// outside the cache and its recompute counter.
		fps := make([]uint64, n)
		for i, nd := range nodes {
			fps[i] = nd.Fingerprint()
		}
		sample(0, detect.Combine(fps))
		hooks = append(hooks, func(r int) bool {
			if collect.Due(r + 1) {
				sample(uint64(r+1), net.LastFingerprint())
			}
			return true
		})
	}
	var onRound func(int) bool
	if len(hooks) > 0 {
		onRound = func(r int) bool {
			cont := true
			for _, h := range hooks {
				if !h(r) {
					cont = false
				}
			}
			return cont
		}
	}
	var res sim.RunResult
	if spec.engine() == EngineEvent {
		res = net.RunEvents(sim.EventConfig{
			Policy:        EventPolicyFor(spec.Scheduler),
			MaxRounds:     maxRounds,
			QuiesceRounds: quiesceRounds,
			QuiesceWindow: windowFn,
			ActiveKinds:   kinds,
			OnRound:       onRound,
		})
	} else {
		res = net.Run(sim.RunConfig{
			Scheduler:     NewScheduler(spec.Scheduler),
			MaxRounds:     maxRounds,
			QuiesceRounds: quiesceRounds,
			QuiesceWindow: windowFn,
			ActiveKinds:   kinds,
			OnRound:       onRound,
		})
	}

	if sample != nil {
		// Final observation: the converged round itself never fires
		// OnRound (the run loop returns on quiescence first), so the
		// stream always ends with the quiesced state — a converged run's
		// last snapshot shows a complete version-vector fill, a run cut
		// off by MaxRounds a partial one.
		sample(uint64(res.Rounds), net.LastFingerprint())
	}
	out := readStopped(BackendSim, g, nodes, rec, begin)
	out.Converged = res.Converged
	out.Rounds = res.Rounds
	out.LastChange = res.LastChangeRound
	out.Metrics = net.Metrics()
	out.BrokenRounds = broken
	out.Dropped = net.Dropped()
	for _, c := range out.Metrics.SentByKind {
		out.TotalMessages += c
	}
	if res.Converged {
		// The sim backend's certificate, assembled from the quiesced
		// state the run loop already computed: no extra hashing, so the
		// deterministic FingerprintRecomputes figure of merit (and every
		// serialized result) is unchanged by certification. Active-kind
		// counters are equal by construction — Run only declares
		// quiescence once the active kinds drained.
		var activeSent int64
		for _, k := range kinds {
			activeSent += out.Metrics.SentByKind[k]
		}
		certWindow := quiesceRounds
		if windowFn != nil {
			// The adaptive requirement actually held at certification: the
			// floor raised to the deepest backoff tier in effect.
			if w := windowFn(); w > certWindow {
				certWindow = w
			}
		}
		out.Cert = &detect.Certificate{
			Backend:     string(BackendSim),
			Epoch:       uint64(res.Rounds),
			Window:      certWindow,
			Versions:    net.StateVersions(),
			Fingerprint: net.LastFingerprint(),
			Sent:        activeSent,
			Received:    activeSent,
		}
	}
	return out
}

// readStopped reads a run's stopped nodes into a Result, for both
// drivers: legitimacy, the protocol counters, the largest node state,
// the audit chain head and the tree. WallTime is stamped before the
// tree is extracted, so it spans the run and its legitimacy check.
func readStopped(b Backend, g *graph.Graph, nodes []*core.Node, rec *auditlog.Recorder, begin time.Time) Result {
	st := core.AggregateStats(nodes)
	out := Result{
		Backend:            b,
		Legit:              core.CheckLegitimacy(g, nodes),
		MaxStateBits:       sim.MaxStateBitsOf(nodes),
		Exchanges:          st.ExchangesComplete,
		Aborts:             st.Aborted(),
		SearchesSuppressed: st.SearchesSuppressed,
	}
	if rec != nil {
		out.AuditChain = rec.ChainHead()
		out.AuditRecords = rec.Len()
	}
	out.WallTime = time.Since(begin)
	if t, err := core.ExtractTree(g, nodes); err == nil {
		out.Tree = t
	}
	return out
}

// MustRun is Run for statically known-good specs (examples, benchmarks,
// experiment tables with hard-coded parameters): a spec error is a
// programmer error and panics.
func MustRun(spec RunSpec) Result {
	res, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return res
}

// Preload writes a legitimate configuration into the nodes: the
// stabilized BFS-rooted tree reduced to a Fürer–Raghavachari fixed point,
// with coherent distances, dmax, submax, colors and views. It is the
// configuration the protocol itself converges to (up to tie-breaking),
// used as the starting point of closure and fault-recovery runs.
func Preload(g *graph.Graph, nodes []*core.Node, cfg core.Config) error {
	tree, err := PreloadTree(g)
	if err != nil {
		return err
	}
	return PreloadFromTree(g, nodes, cfg, tree)
}

// PreloadFromTree writes the legitimate configuration induced by the
// given spanning tree into the nodes: coherent parents, distances,
// dmax/submax/colors and views, exactly as Preload does for the
// Fürer–Raghavachari tree. The tree must be a fixed point for the
// resulting configuration to satisfy the full legitimacy predicate.
func PreloadFromTree(g *graph.Graph, nodes []*core.Node, cfg core.Config, tree *spanning.Tree) error {
	k := tree.MaxDegree()
	deg := tree.Degrees()
	depth := tree.Depths()
	submax := subtreeMax(tree, deg, depth)
	for i, nd := range nodes {
		nd.SetState(0, tree.Parent(i), depth[i], k, submax[i], false)
	}
	for i, nd := range nodes {
		for _, u := range g.Neighbors(i) {
			nd.SetView(u, core.View{
				Root:     0,
				Parent:   tree.Parent(u),
				Distance: depth[u],
				Dmax:     k,
				Submax:   submax[u],
				Deg:      deg[u],
				Color:    false,
			})
		}
	}
	return nil
}

// PreloadTree returns the deterministic legitimate tree that Preload
// writes into the nodes: the BFS tree rooted at node 0 reduced to a
// Fürer–Raghavachari fixed point. Targeted-fault models use it to pick
// role nodes (root, deepest leaf, ...) consistent with the preloaded
// configuration.
func PreloadTree(g *graph.Graph) (*spanning.Tree, error) {
	tree := spanning.BFSTree(g, 0)
	// Reduce to a fixed point with the same sequential semantics.
	if err := reduceToFixedPoint(tree); err != nil {
		return nil, err
	}
	return tree, nil
}

// PathTree returns the canonical Hamiltonian-path spanning tree
// parent(i) = i-1 rooted at node 0 (the StartPath preload). It errors
// when the graph is missing any path edge {i-1, i} — only the
// ring-based families guarantee them by construction. Degree 2 is the
// global optimum for any spanning tree, so the path is trivially a
// Fürer–Raghavachari fixed point: no sequential reduction is needed,
// which keeps the preload O(n) at sizes where reduceToFixedPoint is
// far too slow.
func PathTree(g *graph.Graph) (*spanning.Tree, error) {
	parent := make([]int, g.N())
	for i := 1; i < g.N(); i++ {
		parent[i] = i - 1
	}
	tree, err := spanning.NewFromParents(g, parent, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: graph has no canonical Hamiltonian path: %w", err)
	}
	return tree, nil
}

// subtreeMax returns, per node, the largest of the given values over its
// subtree (submax when vals are the tree degrees). The nodes are
// counting-sorted by depth, and each pushes its value into its parent's
// from the deepest level up, so every child is folded in before its
// parent is read. O(n).
func subtreeMax(t *spanning.Tree, vals, depth []int) []int {
	height := 0
	for _, d := range depth {
		height = max(height, d)
	}
	// start[d] becomes the first position of depth d in byDepth.
	start := make([]int, height+2)
	for _, d := range depth {
		start[d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	byDepth := make([]int, len(depth))
	for v, d := range depth {
		byDepth[start[d]] = v
		start[d]++
	}
	out := slices.Clone(vals)
	for i := len(byDepth) - 1; i >= 0; i-- {
		v := byDepth[i]
		p := t.Parent(v) // the root is its own parent: a no-op push
		out[p] = max(out[p], out[v])
	}
	return out
}

// reduceToFixedPoint applies the sequential local search.
func reduceToFixedPoint(t *spanning.Tree) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("harness: preload tree invalid: %w", err)
	}
	mdstseq.FurerRaghavachari(t)
	return nil
}
