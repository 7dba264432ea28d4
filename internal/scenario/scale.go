package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/sim"
)

// Scale sweep: the large-n matrix cells (n > 256) that the incremental
// simulator hot path unlocks, plus the committed comparison of its
// fingerprint work with a full rehash's. Every reported field is a
// deterministic function of the seeds — no wall-clock numbers — so
// BENCH_scale.json is byte-identical across machines and reruns; the
// figure of merit is the count of per-node fingerprint recomputations
// the quiescence detector performs (sim.Metrics.FingerprintRecomputes),
// which is exactly the work the incremental cache removes.

// ScaleSpec configures ScaleSweep. The zero value selects the committed
// defaults: star-of-cliques at n=256/512/1024. The default family is
// chosen to isolate what this sweep measures — the SIMULATOR's
// fingerprint/round/quiescence machinery at large n — from the
// protocol's own convergence schedule: its hub-degree spanning tree is
// already at the Fürer–Raghavachari fixed point (the hub is an
// articulation point, so deg(T) cannot drop below the clique count),
// which keeps the reduction phase short while the long quiescence
// window (2n+Θ(1) rounds of full gossip at every node) still hammers
// the round loop. Protocol-active scaling lives in the paired
// full-vs-incremental baseline and in BenchmarkScaleSweep's
// ring+chords ladder; families with long reduction schedules (gnp,
// grid, hypercube) run the same ladder via -families/-sizes at the
// cost of O(n) extra convergence rounds of search traffic.
type ScaleSpec struct {
	Family  string // graph family (default "star-of-cliques")
	Sizes   []int  // node counts (default 256, 512, 1024)
	Workers int    // engine parallelism (default GOMAXPROCS)

	// The event-engine ladder: closure runs at sizes the compat core
	// cannot reach in CI time, executed on the discrete-event core
	// (harness.EngineEvent) on scaleEventFamily from the StartPath
	// preload. EventSizes defaults to 4096 and 16384.
	EventSizes []int

	// The steady-state decay section: paired static-vs-adaptive
	// suppression runs on the event core from the legitimate preload
	// (see DecayCell), over decayWindows cap-length observation windows.
	// DecaySizes defaults to 256 (one cell); the family is
	// ScaleSpec.Family — star-of-cliques keeps dmax > deg(T) at the
	// fixed point, so the retry schedule never goes structurally silent
	// and the decay measured is entirely the backoff's doing.
	DecaySizes []int
}

// The scale sweep's fixed settings. Every matrix of the sweep runs one
// seed per size from scaleBaseSeed, and the fingerprint-work baseline
// is the smallest ladder size's run.
const (
	scaleBaseSeed = 1
	// scaleEventFamily is a canonical-ring family, so the
	// Hamiltonian-path configuration (degree 2, Δ* = 2) exists and is a
	// reduction fixed point with the search module off; the whole
	// network parks after the first quiet tick and the quiescence window
	// (2n+Θ(1) derived rounds) is fast-forwarded by the event loop
	// instead of swept. Compat would execute every one of those rounds
	// at n ticks + Θ(n) gossip each — hours at n=16384, seconds here.
	scaleEventFamily = "ring+chords"
	// decayWindows is the number of cap-length observation windows of a
	// decay cell: the first absorbs the tier climb, the last is fully at
	// the cap.
	decayWindows = 3
)

func (s ScaleSpec) normalized() ScaleSpec {
	if s.Family == "" {
		s.Family = "star-of-cliques"
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{256, 512, 1024}
	}
	if len(s.EventSizes) == 0 {
		s.EventSizes = []int{4096, 16384}
	}
	if len(s.DecaySizes) == 0 {
		s.DecaySizes = []int{256}
	}
	return s
}

// ScaleCell is one run of the scale sweep.
type ScaleCell struct {
	Family                string `json:"family"`
	N                     int    `json:"n"`
	Edges                 int    `json:"edges"`
	Seed                  int64  `json:"seed"`
	Converged             bool   `json:"converged"`
	Rounds                int    `json:"rounds"`
	LastChange            int    `json:"lastChange"`
	Messages              int64  `json:"messages"`
	SearchMessages        int64  `json:"searchMessages"`
	MaxDegree             int    `json:"maxDegree"`
	DegreeBound           int    `json:"degreeBound"`
	WithinBound           bool   `json:"withinBound"`
	FingerprintRecomputes int64  `json:"fingerprintRecomputes"`
}

// SuppressionCell is one paired on/off comparison of the search-traffic
// suppression hot path: the identical instance (same seed, graph and
// corruptions — run seeds exclude the suppression axis) executed with
// the knob off and on. The off columns repeat the main ladder's run; the
// on columns must reach the same legitimacy predicate and the identical
// Δ*+1 degree bracket (enforced by ScaleSweep), differing only in
// traffic and possibly in timing.
type SuppressionCell struct {
	Family             string `json:"family"`
	N                  int    `json:"n"`
	Seed               int64  `json:"seed"`
	RoundsOff          int    `json:"roundsOff"`
	RoundsOn           int    `json:"roundsOn"`
	MessagesOff        int64  `json:"messagesOff"`
	MessagesOn         int64  `json:"messagesOn"`
	SearchMessagesOff  int64  `json:"searchMessagesOff"`
	SearchMessagesOn   int64  `json:"searchMessagesOn"`
	SearchesSuppressed int64  `json:"searchesSuppressed"`
	MaxDegreeOn        int    `json:"maxDegreeOn"`
	DegreeBound        int    `json:"degreeBound"`
	WithinBound        bool   `json:"withinBound"`
	// SearchReduction = searchMessagesOff / searchMessagesOn — the
	// committed figure of merit (the acceptance bar is >= 2 at n=512).
	SearchReduction float64 `json:"searchReduction"`
	// MessageReduction is the same ratio over all message kinds.
	MessageReduction float64 `json:"messageReduction"`
}

// EventCell is one run of the event-engine ladder: sizes executed on
// the discrete-event core, where rounds without work are skipped and
// idle nodes park. Every field is a deterministic function of the seed.
type EventCell struct {
	Family    string `json:"family"`
	N         int    `json:"n"`
	Edges     int    `json:"edges"`
	Seed      int64  `json:"seed"`
	Converged bool   `json:"converged"`
	// Certified asserts the run produced a quiescence certificate (the
	// event loop's empty-queue + expired-timers evidence).
	Certified   bool  `json:"certified"`
	Rounds      int   `json:"rounds"`
	LastChange  int   `json:"lastChange"`
	Messages    int64 `json:"messages"`
	MaxDegree   int   `json:"maxDegree"`
	DegreeBound int   `json:"degreeBound"`
	WithinBound bool  `json:"withinBound"`
	// Events is the total executed simulator events (ticks + deliveries);
	// TailEvents is the portion after the last state change, i.e. the
	// work the engine still did across the TailRounds of the quiescence
	// window. TailEventsPerNodeRound = TailEvents / (TailRounds × N) is
	// the frontier figure of merit: the compat core's floor is 1.0
	// (every node ticks every round); sub-linear per-round work after the
	// frontier shrinks means a value far below it.
	Events                 int64   `json:"events"`
	TailEvents             int64   `json:"tailEvents"`
	TailRounds             int     `json:"tailRounds"`
	TailEventsPerNodeRound float64 `json:"tailEventsPerNodeRound"`
}

// DecayCell is one paired steady-state silence measurement: the
// identical instance (same seed, graph and legitimate preload) executed
// on the event core with the static suppression window and with
// adaptive backoff, observed over decayWindows cap-length windows past
// convergence. The committed figure of merit is DecayRatio — the static
// twin's last-window message volume over the adaptive twin's — with an
// acceptance bar of >= 10 enforced by ScaleSweep. The cell then
// injects a fault at the deepest backoff tier (a node whose retry
// spacing reached the cap) and re-runs under the dynamic
// quiescence-stability window: re-convergence with a certificate
// inside RecoveryBudget (twice the cap-based stability window) is also
// enforced.
type DecayCell struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	// BaseWindow/CapWindow are the static pruning window and the
	// adaptive cap, in ticks; WindowRounds is the observation window
	// length (one cap) in virtual rounds.
	BaseWindow   int `json:"baseWindow"`
	CapWindow    int `json:"capWindow"`
	WindowRounds int `json:"windowRounds"`
	// Per-observation-window total message volumes (all kinds), static
	// twin vs adaptive twin. The static series stays flat; the adaptive
	// series decays geometrically as tiers deepen.
	StaticPerWindow  []int64 `json:"staticPerWindow"`
	BackoffPerWindow []int64 `json:"backoffPerWindow"`
	// DecayRatio = StaticPerWindow[last] / BackoffPerWindow[last]
	// (acceptance bar: >= 10).
	DecayRatio float64 `json:"decayRatio"`
	// Fault-at-deepest-tier phase: RetryAtFault is the network's maximum
	// retry spacing at injection (must equal CapWindow — the proof the
	// fault really hit the deepest tier), FaultNode the corrupted node.
	RetryAtFault int `json:"retryAtFault"`
	FaultNode    int `json:"faultNode"`
	// RecoveryRounds is rounds from injection to the quiescence
	// certificate; RecoveredInBudget asserts it landed inside
	// RecoveryBudget with the legitimacy predicate restored.
	RecoveryRounds    int  `json:"recoveryRounds"`
	RecoveryBudget    int  `json:"recoveryBudget"`
	RecoveredInBudget bool `json:"recoveredInBudget"`
	Legitimate        bool `json:"legitimate"`
}

// ScaleReport is the deterministic content of BENCH_scale.json.
type ScaleReport struct {
	Cells []ScaleCell `json:"cells"`

	// Suppression pairs every ladder size with its suppression-on twin:
	// the committed on/off Search-kind message-volume comparison.
	Suppression []SuppressionCell `json:"suppression"`

	// Event is the event-engine ladder (see EventCell): the large-n
	// cells that frontier-only scheduling unlocks.
	Event []EventCell `json:"event"`

	// Decay is the steady-state silence section (see DecayCell): the
	// committed adaptive-backoff idle-traffic baselines.
	Decay []DecayCell `json:"decay"`

	// The incremental cache's fingerprint work on the baseline run vs
	// what hashing every node at every Fingerprint call of that run would
	// cost: nodes × (rounds + 2), one call at network build, one on entry
	// to the run loop and one per round (pinned by sim's
	// TestUnversionedSyncRunHashesEveryNodeEveryCall).
	BaselineN             int   `json:"baselineN"`
	BaselineRounds        int   `json:"baselineRounds"`
	FullRehashRecomputes  int64 `json:"fullRehashRecomputes"`
	IncrementalRecomputes int64 `json:"incrementalRecomputes"`
	// OverheadReduction = full / incremental; the acceptance bar is >= 5.
	OverheadReduction float64 `json:"overheadReduction"`
}

// JSON renders the report as deterministic indented JSON.
func (r *ScaleReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ScaleSweep executes the scale matrix on the incremental hot path, its
// suppression twin, the event-core ladder and the decay cells, and
// reports the fingerprint work the incremental cache saved on the
// baseline run.
func ScaleSweep(spec ScaleSpec) (*ScaleReport, error) {
	ns := spec.normalized()
	matrixSpec := func(sizes []int) Spec {
		return Spec{
			Families:     []string{ns.Family},
			Sizes:        sizes,
			Schedulers:   []harness.SchedulerKind{harness.SchedSync},
			Starts:       []harness.StartMode{harness.StartCorrupt},
			SeedsPerCell: 1,
			BaseSeed:     scaleBaseSeed,
		}
	}

	m, err := Engine{Workers: ns.Workers}.Execute(matrixSpec(ns.Sizes))
	if err != nil {
		return nil, err
	}
	report := &ScaleReport{BaselineN: slices.Min(ns.Sizes)}
	var incBaseline *RunResult
	for i := range m.Runs {
		rr := &m.Runs[i]
		if rr.Err != "" {
			return nil, fmt.Errorf("scenario: scale run %s failed: %s", rr.Cell, rr.Err)
		}
		report.Cells = append(report.Cells, ScaleCell{
			Family:                rr.Family,
			N:                     rr.N,
			Edges:                 rr.Edges,
			Seed:                  rr.Seed,
			Converged:             rr.Converged,
			Rounds:                rr.Rounds,
			LastChange:            rr.LastChange,
			Messages:              rr.Messages,
			SearchMessages:        rr.SearchMessages,
			MaxDegree:             rr.MaxDegree,
			DegreeBound:           rr.DegreeBound,
			WithinBound:           rr.WithinBound,
			FingerprintRecomputes: rr.FingerprintRecomputes,
		})
		if rr.N == report.BaselineN && incBaseline == nil {
			incBaseline = rr
		}
	}

	// The suppression-on twin of the ladder: the suppression axis is
	// excluded from run seeds, so every run below executes the IDENTICAL
	// instance (graph + corruptions) as its entry in report.Cells —
	// paired on/off message-volume comparisons, not cross-instance noise.
	sup, err := Engine{Workers: ns.Workers}.Execute(func() Spec {
		s := matrixSpec(ns.Sizes)
		s.Retry = []core.RetryPolicy{core.RetrySuppress}
		return s
	}())
	if err != nil {
		return nil, err
	}
	for i := range sup.Runs {
		on := &sup.Runs[i]
		if on.Err != "" {
			return nil, fmt.Errorf("scenario: suppressed scale run %s failed: %s", on.Cell, on.Err)
		}
		off := &m.Runs[i]
		if off.N != on.N || off.Seed != on.Seed {
			return nil, fmt.Errorf("scenario: suppression ladder misaligned at %d: n=%d/%d seed=%d/%d",
				i, off.N, on.N, off.Seed, on.Seed)
		}
		// Outcome equivalence is part of the committed contract: the
		// suppressed run must converge to the same legitimacy predicate
		// and the identical Δ*+1 bracket (the exact tree and timing may
		// differ — suppression defers redundant tokens, nothing else).
		if !on.Converged || !on.Legitimate || !on.WithinBound || on.DegreeBound != off.DegreeBound {
			return nil, fmt.Errorf(
				"scenario: suppression broke outcome equivalence at n=%d: converged=%v legit=%v deg=%d bound=%d (off bound %d)",
				on.N, on.Converged, on.Legitimate, on.MaxDegree, on.DegreeBound, off.DegreeBound)
		}
		cell := SuppressionCell{
			Family:             on.Family,
			N:                  on.N,
			Seed:               on.Seed,
			RoundsOff:          off.Rounds,
			RoundsOn:           on.Rounds,
			MessagesOff:        off.Messages,
			MessagesOn:         on.Messages,
			SearchMessagesOff:  off.SearchMessages,
			SearchMessagesOn:   on.SearchMessages,
			SearchesSuppressed: int64(on.SearchesSuppressed),
			MaxDegreeOn:        on.MaxDegree,
			DegreeBound:        on.DegreeBound,
			WithinBound:        on.WithinBound,
		}
		if on.SearchMessages > 0 {
			cell.SearchReduction = float64(off.SearchMessages) / float64(on.SearchMessages)
		}
		if on.Messages > 0 {
			cell.MessageReduction = float64(off.Messages) / float64(on.Messages)
		}
		report.Suppression = append(report.Suppression, cell)
	}

	// The event-engine ladder: closure runs at sizes the compat core
	// cannot sweep in CI time, one seed per size on the discrete-event
	// core from the StartPath preload (see scaleEventFamily for why
	// the closure shape is the one that scales). Acceptance is enforced
	// here, not just recorded — a cell that fails to converge, reach
	// legitimacy, stay within the Δ*+1 bracket, or produce a quiescence
	// certificate fails the whole sweep (and therefore `make drift`).
	ev, err := Engine{Workers: ns.Workers}.Execute(Spec{
		Families:     []string{scaleEventFamily},
		Sizes:        ns.EventSizes,
		Schedulers:   []harness.SchedulerKind{harness.SchedSync},
		Starts:       []harness.StartMode{harness.StartPath},
		Engines:      []harness.Engine{harness.EngineEvent},
		SeedsPerCell: 1,
		BaseSeed:     scaleBaseSeed,
	})
	if err != nil {
		return nil, err
	}
	for i := range ev.Runs {
		rr := &ev.Runs[i]
		if rr.Err != "" {
			return nil, fmt.Errorf("scenario: event-ladder run %s failed: %s", rr.Cell, rr.Err)
		}
		if !rr.Converged || !rr.Legitimate || !rr.WithinBound {
			return nil, fmt.Errorf(
				"scenario: event-ladder run %s missed acceptance: converged=%v legit=%v deg=%d bound=%d",
				rr.Cell, rr.Converged, rr.Legitimate, rr.MaxDegree, rr.DegreeBound)
		}
		if rr.Cert == nil {
			return nil, fmt.Errorf("scenario: event-ladder run %s converged without a quiescence certificate", rr.Cell)
		}
		cell := EventCell{
			Family:      rr.Family,
			N:           rr.N,
			Edges:       rr.Edges,
			Seed:        rr.Seed,
			Converged:   rr.Converged,
			Certified:   rr.Cert != nil,
			Rounds:      rr.Rounds,
			LastChange:  rr.LastChange,
			Messages:    rr.Messages,
			MaxDegree:   rr.MaxDegree,
			DegreeBound: rr.DegreeBound,
			WithinBound: rr.WithinBound,
			Events:      rr.Events,
			TailEvents:  rr.TailEvents,
			TailRounds:  rr.Rounds - rr.LastChange,
		}
		if cell.TailRounds > 0 && rr.N > 0 {
			cell.TailEventsPerNodeRound = float64(cell.TailEvents) /
				(float64(cell.TailRounds) * float64(rr.N))
		}
		report.Event = append(report.Event, cell)
	}

	// The steady-state decay section. Acceptance is enforced in-sweep —
	// a cell whose last-window decay misses the 10x bar, whose fault
	// missed the deepest tier, or whose recovery blew the budget fails
	// the whole sweep (and therefore `make drift`).
	for _, n := range ns.DecaySizes {
		seed := runSeed(scaleBaseSeed, Cell{Family: ns.Family, N: n}, 0)
		cell, err := decayCell(ns.Family, n, seed)
		if err != nil {
			return nil, err
		}
		if cell.DecayRatio < 10 {
			return nil, fmt.Errorf(
				"scenario: decay cell n=%d missed the 10x bar: static %v vs backoff %v (ratio %.2f)",
				cell.N, cell.StaticPerWindow, cell.BackoffPerWindow, cell.DecayRatio)
		}
		if cell.RetryAtFault != cell.CapWindow {
			return nil, fmt.Errorf(
				"scenario: decay cell n=%d fault missed the deepest tier: retry %d, cap %d",
				cell.N, cell.RetryAtFault, cell.CapWindow)
		}
		if !cell.RecoveredInBudget || !cell.Legitimate {
			return nil, fmt.Errorf(
				"scenario: decay cell n=%d failed recovery: %d rounds (budget %d), legit=%v",
				cell.N, cell.RecoveryRounds, cell.RecoveryBudget, cell.Legitimate)
		}
		report.Decay = append(report.Decay, cell)
	}

	report.BaselineRounds = incBaseline.Rounds
	report.FullRehashRecomputes = int64(incBaseline.Nodes) * int64(incBaseline.Rounds+2)
	report.IncrementalRecomputes = incBaseline.FingerprintRecomputes
	if incBaseline.FingerprintRecomputes > 0 {
		report.OverheadReduction = float64(report.FullRehashRecomputes) /
			float64(incBaseline.FingerprintRecomputes)
	}
	return report, nil
}

// decayCell executes one steady-state decay measurement (see DecayCell).
// Both twins run on the event core — the compat core ticks every node
// every round, so its gossip volume can never decay regardless of the
// retry schedule; frontier parking is what turns suppressed retries
// into absent traffic. The fault phase runs on the compat core: after
// the corruption every node must actually step each round for the
// stability-window accounting (stable rounds = virtual rounds) that the
// budget bound is stated in.
func decayCell(family string, size int, seed int64) (DecayCell, error) {
	fam, ok := graph.LookupFamily(family)
	if !ok {
		return DecayCell{}, fmt.Errorf("scenario: unknown graph family %q", family)
	}
	g := fam.Build(size, rand.New(rand.NewSource(seed)))
	n := g.N()
	cfgStatic := core.DefaultConfig(n)
	cfgStatic.Retry = core.RetrySuppress
	cfgBackoff := cfgStatic
	cfgBackoff.Retry = core.RetryBackoff
	capW := cfgBackoff.BackoffCapWindow()
	cell := DecayCell{
		Family:       family,
		N:            n,
		Seed:         seed,
		BaseWindow:   cfgStatic.PruneWindow(),
		CapWindow:    capW,
		WindowRounds: capW,
	}
	total := decayWindows * capW

	// observe runs one twin from the legitimate preload for `total`
	// virtual rounds (no quiescence detection — the point is to watch
	// the steady state, not to stop at it) and returns the per-window
	// message volumes plus the still-live network for the fault phase.
	observe := func(cfg core.Config) ([]int64, *sim.Network, error) {
		net := core.BuildNetwork(g, cfg, seed)
		if err := harness.Preload(g, core.NodesOf(net), cfg); err != nil {
			return nil, nil, err
		}
		sent := func() int64 {
			var t int64
			for _, v := range net.Metrics().SentByKind {
				t += v
			}
			return t
		}
		per := make([]int64, 0, decayWindows)
		var prev int64
		net.RunEvents(sim.EventConfig{
			MaxRounds: total,
			OnRound: func(r int) bool {
				// r+1 = virtual rounds completed; close every window the
				// execution has crossed (the event core reports only
				// executed rounds, so a boundary can be crossed mid-gap).
				for len(per) < decayWindows && r+1 >= (len(per)+1)*capW {
					cur := sent()
					per = append(per, cur-prev)
					prev = cur
				}
				return true
			},
		})
		// The final boundary round itself is never reported by OnRound
		// (the engine stops at the bound); flush the residue.
		if cur := sent(); len(per) < decayWindows {
			per = append(per, cur-prev)
		}
		for len(per) < decayWindows {
			per = append(per, 0)
		}
		return per, net, nil
	}

	staticPer, _, err := observe(cfgStatic)
	if err != nil {
		return cell, err
	}
	backoffPer, net, err := observe(cfgBackoff)
	if err != nil {
		return cell, err
	}
	cell.StaticPerWindow = staticPer
	cell.BackoffPerWindow = backoffPer
	if last := backoffPer[decayWindows-1]; last > 0 {
		cell.DecayRatio = float64(staticPer[decayWindows-1]) / float64(last)
	} else if staticPer[decayWindows-1] > 0 {
		// Total silence beats any finite ratio; report the static volume
		// itself as the (lower-bound) ratio.
		cell.DecayRatio = float64(staticPer[decayWindows-1])
	}

	// Fault at the deepest tier: corrupt the first node whose retry
	// spacing reached the network maximum (asserted == cap by the
	// caller), then re-run under the dynamic stability window and the
	// cap-derived budget.
	nodes := core.NodesOf(net)
	cell.RetryAtFault = net.MaxRetryPeriod(0)
	cell.FaultNode = -1
	for i, nd := range nodes {
		if nd.CurrentRetryPeriod() == cell.RetryAtFault {
			cell.FaultNode = i
			break
		}
	}
	if cell.FaultNode < 0 {
		return cell, fmt.Errorf("scenario: decay cell n=%d has no node at the deepest tier", n)
	}
	nodes[cell.FaultNode].Corrupt(rand.New(rand.NewSource(seed^0x0fa17)), n)

	cell.RecoveryBudget = 2 * harness.QuiesceWindowRounds(n, cfgBackoff.EffectiveRetryPeriod())
	start := net.Metrics().Rounds
	res, err := harness.RunOn(harness.RunSpec{
		Graph:     g,
		Config:    cfgBackoff,
		Scheduler: harness.SchedSync,
		MaxRounds: cell.RecoveryBudget,
	}, net)
	if err != nil {
		return cell, err
	}
	cell.RecoveryRounds = res.Rounds - start
	cell.RecoveredInBudget = res.Converged && cell.RecoveryRounds <= cell.RecoveryBudget
	cell.Legitimate = res.Legit.OK()
	return cell, nil
}
