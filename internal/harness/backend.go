package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"mdst/internal/auditlog"
	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/metrics"
	"mdst/internal/netrun"
	"mdst/internal/sim"
)

// Backend selects the execution target of a run. All backends execute
// the same protocol processes over the same workload graph with the
// same initial configuration (corruptions are drawn from the run seed
// regardless of backend); they differ in who drives the processes.
type Backend string

// Execution backends.
const (
	// BackendSim is the deterministic seeded simulator (sim.Network) —
	// the default, and the only backend whose results are bit-reproducible
	// (rounds, messages and trees depend solely on the spec and seed).
	BackendSim Backend = "sim"
	// BackendLive is the goroutine-per-node CSP runtime (sim.LiveNetwork):
	// real concurrency over Go channels, convergence detected in-band by
	// feeding lock-free samples of the versions and state hashes each
	// node loop posts (sim.Board) to internal/detect until a quiescence
	// certificate is issued. Wall-clock nondeterministic; the legitimacy
	// predicate and the Δ*+1 degree guarantee are the reproducible
	// claims.
	BackendLive Backend = "live"
	// BackendTCP runs one process per node over loopback TCP sockets
	// (internal/netrun), one connection per edge — the paper's
	// asynchronous reliable-FIFO model on an actual network stack.
	// Convergence is detected over a side-channel control connection
	// (netrun.ProbeConn), so the driver never stops the cluster just to
	// look for quiescence. Also wall-clock nondeterministic.
	BackendTCP Backend = "tcp"
)

// Backends returns all execution backends in display order.
func Backends() []Backend { return []Backend{BackendSim, BackendLive, BackendTCP} }

// ParseBackend resolves a backend name (sim|live|tcp); the empty string
// is the sim default.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", string(BackendSim):
		return BackendSim, nil
	case string(BackendLive):
		return BackendLive, nil
	case string(BackendTCP):
		return BackendTCP, nil
	}
	return "", fmt.Errorf("harness: unknown backend %q (want sim|live|tcp)", s)
}

// ErrTuning is the named error wrapped by every BackendTuning
// validation failure (errors.Is-matchable).
var ErrTuning = errors.New("invalid backend tuning")

// BackendTuning tunes the wall-clock backends (live, tcp); the sim
// backend ignores it entirely, so it never perturbs deterministic
// results. Zero durations select per-backend defaults; negative values
// are invalid and fail Validate loudly (they used to be silently
// replaced by defaults, or to hang a ticker).
type BackendTuning struct {
	// Tick is the gossip period of each node's "do forever" loop
	// (live default 200µs, tcp default 2ms).
	Tick time.Duration
	// Probe is the convergence-detection sampling interval: how often
	// the driver takes one detect.Sample (live default 2ms over the
	// in-process probe, tcp default 25ms over the control connection).
	Probe time.Duration
	// Deadline is the total wall-clock budget of the run (default 30s).
	// A run that is not legitimate at the deadline reports
	// Converged=false. A positive Deadline takes precedence over
	// Budget.
	Deadline time.Duration
	// BatchSize caps how many protocol messages the tcp backend's
	// per-direction edge writers coalesce into one wire frame
	// (netrun.Config.BatchSize; default 1, one message per frame). The
	// live backend has no wire to frame and ignores both batch knobs.
	BatchSize int
	// BatchMaxWait bounds how long the tcp backend may hold a partially
	// filled frame open for further messages (netrun.Config.BatchMaxWait;
	// 0: flush immediately with whatever is queued, adding no latency).
	// A positive wait stretches the quiescence stability window — see
	// resolveWall — so certificates still cover the slowed retries.
	BatchMaxWait time.Duration
	// Budget switches the deadline to convergence-aware mode: when
	// positive (and Deadline is zero), the driver first executes the
	// paired deterministic sim run — same spec, same seed, so the
	// identical workload and corruptions — and scales its observed
	// convergence rounds into this run's wall-clock deadline:
	// Budget × rounds × tick, floored at twice the certificate
	// stability window plus startup slack. This is what lets wall-clock
	// matrix cells grow past toy sizes without a one-size-fits-all 30s
	// budget. If the paired sim run does not converge, the driver falls
	// back to the 30s default.
	Budget float64
}

// Validate checks the tuning for values that would otherwise hang,
// spin, or be silently replaced. Every failure wraps ErrTuning.
func (t BackendTuning) Validate() error {
	if t.Tick < 0 {
		return fmt.Errorf("harness: %w: negative Tick %v", ErrTuning, t.Tick)
	}
	if t.Probe < 0 {
		return fmt.Errorf("harness: %w: negative Probe %v", ErrTuning, t.Probe)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("harness: %w: negative Deadline %v", ErrTuning, t.Deadline)
	}
	if t.Budget < 0 || math.IsNaN(t.Budget) || math.IsInf(t.Budget, 0) {
		return fmt.Errorf("harness: %w: Budget %v out of range", ErrTuning, t.Budget)
	}
	if t.BatchSize < 0 {
		return fmt.Errorf("harness: %w: negative BatchSize %d", ErrTuning, t.BatchSize)
	}
	if t.BatchMaxWait < 0 {
		return fmt.Errorf("harness: %w: negative BatchMaxWait %v", ErrTuning, t.BatchMaxWait)
	}
	return nil
}

func (t BackendTuning) deadline() time.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return 30 * time.Second
}

// wallParams are a wall-clock driver's resolved knobs.
type wallParams struct {
	tick     time.Duration // gossip period
	unit     time.Duration // wall time of one protocol round (tick + frame hold)
	probe    time.Duration // detection sampling interval
	window   time.Duration // stability window the certificate must cover
	stable   int           // consecutive stable probes = window/probe
	deadline time.Duration // total wall-clock budget
}

// resolveWall turns the spec's tuning into driver parameters. The
// stability window mirrors the sim backend's QuiesceRounds formula,
// converted from rounds to wall time via the wall cost of one protocol
// round: the tick period, stretched by BatchMaxWait when the transport
// may hold a frame open that long (a batched retry can lag a full hold
// behind its tick, and a window counted in bare ticks would certify a
// slow-searching configuration quiescent mid-plateau, before its
// reduction fires). With Budget set (and no explicit Deadline) it
// executes the paired sim run to size the deadline.
func resolveWall(spec RunSpec, ops variantOps, tickDefault, probeDefault time.Duration) (wallParams, error) {
	p := wallParams{tick: spec.Tuning.Tick, probe: spec.Tuning.Probe}
	if p.tick <= 0 {
		p.tick = tickDefault
	}
	if p.probe <= 0 {
		p.probe = probeDefault
	}
	p.unit = p.tick + spec.Tuning.BatchMaxWait
	// Under core.RetryBackoff the retry spacing is time-varying per node,
	// but a wall-clock driver cannot scan node tiers behind goroutines or
	// sockets, so EffectiveRetryPeriod returns the conservative static
	// bound (BackoffCapWindow) and the stability window — and through it
	// the Budget deadline floor — covers the deepest tier. The sim
	// backend's dynamic window is the optimization; wall backends pay the
	// cap for soundness.
	p.window = time.Duration(QuiesceWindowRounds(spec.Graph.N(), ops.cfg.EffectiveRetryPeriod())) * p.unit
	p.stable = int(p.window/p.probe) + 1
	p.deadline = spec.Tuning.Deadline
	if p.deadline == 0 && spec.Tuning.Budget > 0 {
		d, err := budgetDeadline(spec, ops, p)
		if err != nil {
			return p, err
		}
		p.deadline = d
	}
	if p.deadline <= 0 {
		p.deadline = spec.Tuning.deadline()
	}
	return p, nil
}

// budgetKey identifies a paired sim instance for the budget cache: it
// captures every input the deterministic sim result depends on for a
// wall-clock spec (DropRate/TrackSafety/MaxRounds are rejected on
// wall-clock backends, so they are always zero here).
type budgetKey struct {
	seed         int64
	start        StartMode
	variant      Variant
	corruptNodes int
	targets      string
	cfg          core.Config
	graph        uint64
}

// budgetRounds caches pairedSimRounds results so a matrix running both
// wall-clock backends (and possibly the sim backend itself) over the
// same paired instance pays for the sim pairing once per process, not
// once per wall-clock cell. One small entry per distinct instance.
var budgetRounds sync.Map // budgetKey -> int (rounds; -1: did not converge)

// graphHash folds the exact topology into the budget key.
func graphHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	write(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			write(v)
		}
		write(-1)
	}
	return h.Sum64()
}

// pairedSimRounds executes (or recalls) the paired deterministic sim
// instance — same spec and seed, so the same graph and corruptions; run
// seeds already exclude the backend axis — and reports its observed
// convergence rounds, -1 when it did not converge. Deterministic, so a
// cache hit returns exactly what a re-run would.
func pairedSimRounds(spec RunSpec, ops variantOps) (int, error) {
	key := budgetKey{
		seed:         spec.Seed,
		start:        spec.Start,
		variant:      spec.Variant,
		corruptNodes: spec.CorruptNodes,
		targets:      fmt.Sprint(spec.CorruptTargets),
		cfg:          ops.cfg,
		graph:        graphHash(spec.Graph),
	}
	if v, ok := budgetRounds.Load(key); ok {
		return v.(int), nil
	}
	simSpec := spec
	simSpec.Backend = BackendSim
	simSpec.Tuning = BackendTuning{}
	res, err := Run(simSpec)
	if err != nil {
		return 0, fmt.Errorf("harness: budget pairing: %w", err)
	}
	rounds := -1
	if res.Converged {
		rounds = res.Rounds
	}
	budgetRounds.Store(key, rounds)
	return rounds, nil
}

// budgetDeadline scales the paired sim run's convergence rounds into a
// wall-clock budget. Returns zero (caller defaults) when the sim run
// does not converge.
func budgetDeadline(spec RunSpec, ops variantOps, p wallParams) (time.Duration, error) {
	rounds, err := pairedSimRounds(spec, ops)
	if err != nil {
		return 0, err
	}
	if rounds < 0 {
		return 0, nil
	}
	d := time.Duration(spec.Tuning.Budget * float64(rounds) * float64(p.unit))
	if min := 2*p.window + 250*time.Millisecond; d < min {
		d = min
	}
	return d, nil
}

// auditRecorder builds the run's audit recorder and installs its
// mutation hooks, nil when the run collects no metrics. Must be called
// after buildInitial: the initial (possibly corrupted) configuration is
// the run's premise, only run-time mutations are chained.
func auditRecorder(spec RunSpec, nodes []*core.Node) *auditlog.Recorder {
	if spec.Collect == nil {
		return nil
	}
	n := spec.Graph.N()
	rec := auditlog.NewRecorder(n, auditlog.Genesis(spec.Seed, n))
	for i, nd := range nodes {
		nd.SetMutationHook(auditHook(rec, i))
	}
	return rec
}

// degreeHist folds per-node tree degrees into a histogram and maximum.
func degreeHist(degs []int) (hist []int, maxDeg int) {
	for _, d := range degs {
		if d > maxDeg {
			maxDeg = d
		}
	}
	hist = make([]int, maxDeg+1)
	for _, d := range degs {
		hist[d]++
	}
	return hist, maxDeg
}

// snapshot builds every metrics observation, on every backend: the
// detector's certificate progress, the per-kind send counters and, where
// node state may be read, the tree and protocol fields. nodes is nil
// while a wall-clock backend runs (its goroutines or sockets own the
// nodes), so its in-flight snapshots carry traffic and detection fields
// only; the simulator passes its nodes on every sample, and the
// wall-clock driver on its final post-stop sample.
func snapshot(g *graph.Graph, prog detect.Progress, byKind map[string]int64, nodes []*core.Node) metrics.Snapshot {
	s := metrics.Snapshot{
		Epoch:       prog.Epoch,
		Nodes:       g.N(),
		SentByKind:  byKind,
		VersionFill: prog.VersionFill,
		Deficit:     prog.Deficit,
		Stable:      prog.Stable,
		Window:      prog.Window,
		Fingerprint: prog.Fingerprint,
	}
	for _, c := range byKind {
		s.SentTotal += c
	}
	if nodes == nil {
		return s
	}
	s.DegreeHist, s.MaxDegree = degreeHist(degrees(nodes))
	st := core.AggregateStats(nodes)
	s.Exchanges = st.ExchangesComplete
	s.Aborts = st.Aborted()
	s.Suppressed = st.SearchesSuppressed
	s.Deblocks = st.DeblocksTriggered
	s.TreeDegree = -1
	if tree, err := core.ExtractTree(g, nodes); err == nil {
		s.TreeDegree = tree.MaxDegree()
	}
	for _, nd := range nodes {
		if nd.Parent() == nd.ID() {
			s.Roots++
		}
		if s.TreeDegree >= 0 && nd.Dmax() == s.TreeDegree {
			s.DmaxAgree++
		}
	}
	return s
}

// runLive executes the spec on the goroutine-per-node runtime, probing
// the network in-band (lock-free reads of what the node loops post)
// through driveWall.
func runLive(spec RunSpec, ops variantOps) (Result, error) {
	p, err := resolveWall(spec, ops, 200*time.Microsecond, 2*time.Millisecond)
	if err != nil {
		return Result{Backend: BackendLive}, err
	}
	begin := time.Now()
	ln := sim.NewLiveNetwork(spec.Graph, ops.factory, sim.LiveConfig{
		TickInterval: p.tick,
		ActiveKinds:  core.ReductionKinds(),
	})
	nodes, res0, ok := buildInitial(spec, ops, ln.Process)
	if !ok {
		return res0, nil
	}
	return driveWall(spec, p, nodes, liveTransport{ln}, begin)
}

// runTCP executes the spec on the loopback TCP cluster. The driver
// watches for quiescence entirely in-band, over the cluster's
// side-channel control connection (per-node quiescence epochs, combined
// fingerprint, active-kind deficit), so on converging runs the cluster
// is stopped once and never restarted (Cluster.Restarts stays zero).
func runTCP(spec RunSpec, ops variantOps) (Result, error) {
	p, err := resolveWall(spec, ops, 2*time.Millisecond, 25*time.Millisecond)
	if err != nil {
		return Result{Backend: BackendTCP}, err
	}
	begin := time.Now()
	c := netrun.NewCluster(spec.Graph, ops.factory, netrun.Config{
		TickInterval: p.tick,
		ActiveKinds:  core.ReductionKinds(),
		BatchSize:    spec.Tuning.BatchSize,
		BatchMaxWait: spec.Tuning.BatchMaxWait,
	})
	nodes, res0, ok := buildInitial(spec, ops, c.Process)
	if !ok {
		return res0, nil
	}
	return driveWall(spec, p, nodes, &tcpTransport{c: c}, begin)
}

// wallTransport is a wall-clock backend as driveWall sees it. Node
// state may be read only between stop and the next start.
type wallTransport interface {
	start() error
	stop()
	// sample takes one in-band detection probe of the running network.
	sample() (detect.Sample, error)
	// traffic reads the per-kind send counters for a snapshot of the
	// running network.
	traffic() map[string]int64
	// counters writes the stopped transport's final counters into out
	// and returns its per-kind send counts.
	counters(out *Result) map[string]int64
}

// driveWall is the one detection loop of the wall-clock backends. It
// starts the transport, feeds its probes to a detect.Detector and, once
// a quiescence certificate is issued, stops the transport and checks
// the legitimacy predicate — the certificate attests observed
// stability, legitimacy on the quiesced state is what declares
// convergence, mirroring Theorem 1's closure argument. A failed check
// resumes the run (counted in Result.Restarts) until the deadline. A
// transport failure (tcp listen, dial or probe) is the run's error.
func driveWall(spec RunSpec, p wallParams, nodes []*core.Node, t wallTransport, begin time.Time) (Result, error) {
	g, b, collect := spec.Graph, spec.backend(), spec.Collect
	fail := func(err error) (Result, error) {
		return Result{Backend: b}, fmt.Errorf("harness: %s backend: %w", b, err)
	}
	rec := auditRecorder(spec, nodes)
	det := detect.New(detect.Config{Window: p.stable, Backend: string(b)})
	deadline := begin.Add(p.deadline)
	var cert *detect.Certificate
	restarts := 0

	if err := t.start(); err != nil {
		return fail(err)
	}
	ticker := time.NewTicker(p.probe)
	defer ticker.Stop()
	for cert == nil && time.Now().Before(deadline) {
		<-ticker.C
		s, err := t.sample()
		if err != nil {
			t.stop()
			return fail(err)
		}
		c, issued := det.Observe(s)
		if collect != nil {
			// One detection observation = one metrics epoch; the stream
			// samples the detector's own progress plus the transport's
			// traffic counters (per-node state stays untouchable while
			// the network runs).
			if prog := det.Progress(); collect.Due(int(prog.Epoch) - 1) {
				collect.Add(snapshot(g, prog, t.traffic(), nil))
			}
		}
		if !issued {
			continue
		}
		t.stop()
		if core.CheckLegitimacy(g, nodes).OK() {
			cert = &c
			break
		}
		// Certified stability but not legitimacy (a pseudo-fixed point
		// outlasted the window): resume and re-establish stability.
		det.Reset()
		restarts++
		if err := t.start(); err != nil {
			return fail(fmt.Errorf("restart: %w", err))
		}
	}
	if cert == nil {
		t.stop() // the deadline passed while the transport ran
	}
	// Legitimacy at exit decides convergence together with the
	// certificate — a certificate alone is stability, not correctness,
	// and legitimacy without certified quiescence (e.g. reached right at
	// the deadline) still counts.
	out := readStopped(b, g, nodes, rec, begin)
	out.Converged = out.Legit.OK()
	out.Rounds = int(det.Epoch())
	out.LastChange = int(det.Epoch())
	out.Cert = cert
	out.Restarts = restarts
	out.Deadline = p.deadline
	byKind := t.counters(&out)
	if collect != nil {
		collect.Add(snapshot(g, det.Progress(), byKind, nodes))
	}
	return out, nil
}

// liveTransport adapts the goroutine-per-node runtime to driveWall.
type liveTransport struct{ ln *sim.LiveNetwork }

func (t liveTransport) start() error                   { t.ln.Start(); return nil }
func (t liveTransport) stop()                          { t.ln.Stop() }
func (t liveTransport) sample() (detect.Sample, error) { return t.ln.ProbeSample(), nil }

func (t liveTransport) traffic() map[string]int64 {
	_, byKind := t.ln.Traffic()
	return byKind
}

func (t liveTransport) counters(out *Result) map[string]int64 {
	total, byKind := t.ln.Traffic()
	out.TotalMessages = total
	return byKind
}

// tcpTransport adapts the loopback TCP cluster to driveWall. Each start
// dials a fresh probe connection to the cluster's control channel, and
// each stop closes it.
type tcpTransport struct {
	c     *netrun.Cluster
	probe *netrun.ProbeConn
}

func (t *tcpTransport) start() error {
	if err := t.c.Start(); err != nil {
		return err
	}
	probe, err := netrun.DialProbe(t.c.ControlAddr())
	if err != nil {
		t.c.Stop()
		return err
	}
	t.probe = probe
	return nil
}

func (t *tcpTransport) stop() {
	t.probe.Close()
	t.c.Stop()
}

func (t *tcpTransport) sample() (detect.Sample, error) { return t.probe.Sample() }

// traffic reads the cluster's send counters in-process, as live does:
// they are lock-free and safe to read while the cluster runs.
func (t *tcpTransport) traffic() map[string]int64 {
	_, byKind := t.c.Traffic()
	return byKind
}

// counters reads the stopped cluster directly (the control channel is
// down). Restarts is the cluster's own count, so a driver that restarted
// needlessly cannot hide it.
func (t *tcpTransport) counters(out *Result) map[string]int64 {
	total, byKind := t.c.Traffic()
	out.TotalMessages = total
	out.Dropped = t.c.Dropped()
	out.Frames = t.c.FramesWritten()
	out.Restarts = t.c.Restarts()
	return byKind
}
