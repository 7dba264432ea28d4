// Package core implements the paper's contribution: the self-stabilizing
// minimum-degree spanning tree protocol of Blin, Gradinariu
// Potop-Butucaru and Rovedakis (IPDPS 2009). Each Node is a sim.Process
// composed of four modules executed in the paper's priority order
// (§3.2): the spanning-tree module (rules R1/R2), the maximum-degree
// module (continuous PIF piggybacked on InfoMsg), the fundamental-cycle
// detection module (Search DFS tokens) and the degree-reduction module
// (Action_on_Cycle / Improve / Deblock with an edge exchange and
// UpdateDist repair).
//
// The edge exchange is the one place where the protocol is implemented
// twice, and a node's exchange is fixed when it is built. NewNode builds
// the chain exchange (reduce.go): an ordered chain of single-parent
// Reverse hops that keeps a spanning tree after every step.
// NewLiteralNode builds the paper's literal Remove/Back choreography of
// Figures 1-2 (choreo.go), whose intermediate
// configurations are not spanning trees. Every other module is shared.
//
// Starting from an arbitrary configuration the network converges to a
// single spanning tree rooted at the minimum ID whose degree is at most
// Δ*+1 (Theorem 2); see snapshot.go for the legitimacy predicate used by
// tests and experiments.
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"mdst/internal/localview"
	"mdst/internal/sim"
)

// RepairPolicy selects how the tree module reacts to a distance
// incoherence (an ablation: resetting is the paper's rule, patching cuts
// the churn that edge reversals cause).
type RepairPolicy int

const (
	// RepairReset is the paper's rule R2 verbatim: any local incoherence
	// creates a fresh root.
	RepairReset RepairPolicy = iota
	// RepairPatch keeps the parent when only the distance disagrees and
	// re-derives it from the parent's distance, falling back to a reset
	// when the distance bound is exceeded. This reduces churn after edge
	// reversals.
	RepairPatch
)

// RetryPolicy selects the cycle-search retry schedule: how often a node
// re-walks the fundamental cycle of a non-tree edge (§3.2, module 3).
// Every policy keeps the legitimacy predicate and the Δ*+1 degree
// bracket; they differ only in how much redundant Search traffic they
// send and how long a quiescence-stability window must be
// (EffectiveRetryPeriod).
type RetryPolicy int

const (
	// RetryPaper is the paper's schedule: every node re-launches a
	// Search token for each non-tree edge every SearchPeriod ticks. It is
	// the zero value, and every committed baseline that names no policy
	// runs it.
	RetryPaper RetryPolicy = iota
	// RetrySuppress adds per-initiator duplicate-token pruning: a node
	// that already launched or forwarded an equivalent Search token —
	// same fundamental-cycle key {initiator edge, deblock target} —
	// within the pruning window (PruneWindow, 4×SearchPeriod) drops
	// re-arrivals instead of re-walking the cycle, unless its own
	// protocol state changed since. Launches are also batched: at most
	// two tokens (searchBatch) leave per tick. Suppression is a bounded
	// delay, never a permanent block: every key passes at least once per
	// window at every node, so convergence to the legitimacy predicate
	// and the Δ*+1 bracket is preserved (differential-tested).
	RetrySuppress
	// RetryBackoff is RetrySuppress with an adaptive window: while a
	// node's state version (own variables plus neighbor views — its
	// local image of the neighborhood version vector) is a fixed point,
	// the effective pruning window doubles each time a full window
	// elapses unchanged, from PruneWindow up to BackoffCapWindow
	// (16×PruneWindow); any version movement collapses it back to the
	// base instantly. The steady-state retry rate therefore decays
	// geometrically toward zero while fault recovery keeps the
	// base-window schedule (the reset happens before the next launch
	// decision).
	RetryBackoff
)

// retryNames are the policies' display names, indexed by value.
var retryNames = [...]string{RetryPaper: "paper", RetrySuppress: "suppress", RetryBackoff: "backoff"}

// String returns the policy's name: paper, suppress or backoff.
func (p RetryPolicy) String() string {
	if p >= 0 && int(p) < len(retryNames) {
		return retryNames[p]
	}
	return fmt.Sprintf("RetryPolicy(%d)", int(p))
}

// ParseRetryPolicy resolves a policy name as printed by String.
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	for p, name := range retryNames {
		if s == name {
			return RetryPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("core: unknown retry policy %q (want paper|suppress|backoff)", s)
}

// Config tunes a Node. Every retry window derives from SearchPeriod and
// Retry. The zero value is NOT usable; call DefaultConfig.
type Config struct {
	// Repair selects the R2 variant.
	Repair RepairPolicy
	// MaxDist bounds legal tree distances (any bound >= n works; the
	// standard assumption that nodes know an upper bound N on the network
	// size). It cuts the count-to-infinity livelock of fake root values.
	// Its width is also the word size of the StateBits metric.
	MaxDist int
	// SearchPeriod is the number of ticks between successive cycle
	// searches for the same non-tree edge.
	SearchPeriod int
	// DeblockTTL bounds the recursion depth of blocking-node reduction.
	DeblockTTL int
	// DeblockTieBreak enables the ID tie-break for equal-potential
	// deblock exchanges, without which such exchanges can oscillate.
	DeblockTieBreak bool
	// Retry selects the cycle-search retry schedule (RetryPaper, the
	// zero value, is the paper's).
	Retry RetryPolicy
}

// DefaultConfig returns the configuration used by the experiments for a
// network of n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Repair:          RepairPatch,
		MaxDist:         2*n + 4,
		SearchPeriod:    16,
		DeblockTTL:      8,
		DeblockTieBreak: true,
	}
}

// searchBatch caps the plain searches launched per tick under
// RetrySuppress and RetryBackoff; deferred edges stay due and launch on
// subsequent ticks, spreading token bursts.
const searchBatch = 2

// maxBackoffTier is the number of times the adaptive window can double
// above PruneWindow.
const maxBackoffTier = 4

// PruneWindow is the duplicate-pruning window in ticks, 4×SearchPeriod;
// both exchanges' suppressors use it. It stays well below the
// quiescence stability window, so a deferred search always retries
// before quiescence could be declared around it.
func (c Config) PruneWindow() int { return 4 * c.SearchPeriod }

// BackoffCapWindow is the deepest adaptive pruning window: PruneWindow
// doubled maxBackoffTier times. Quiescence-stability windows derive
// from it via EffectiveRetryPeriod: past the cap a retry is guaranteed
// every BackoffCapWindow ticks, so certification never waits on an
// unbounded schedule.
func (c Config) BackoffCapWindow() int { return c.PruneWindow() << maxBackoffTier }

// EffectiveRetryPeriod is the worst-case spacing between consecutive
// full passes of an equivalent Search token: SearchPeriod with the
// paper-literal schedule, the pruning window when duplicate suppression
// may defer retries, and the backoff cap when the window is adaptive
// (the deepest tier a node can ever reach). Quiescence-stability
// windows must be derived from this value, not from SearchPeriod alone
// — otherwise a suppressed configuration can be certified quiescent
// before its deferred search ever re-fires. With backoff on this static
// bound is conservative; the sim cores additionally track the
// time-varying per-node schedule through Node.CurrentRetryPeriod, and
// the wall-clock drivers (which cannot cheaply scan node tiers behind
// sockets) take this cap.
func (c Config) EffectiveRetryPeriod() int {
	switch c.Retry {
	case RetrySuppress:
		return c.PruneWindow()
	case RetryBackoff:
		return c.BackoffCapWindow()
	}
	return c.SearchPeriod
}

// bitsFor returns ceil(log2(x+1)), the width needed to store values in
// [0, x].
func bitsFor(x int) int {
	b := 0
	for v := x; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// View is a node's local copy of one neighbor's variables, kept in the
// dense localview table.
type View = localview.View

// Node is one protocol participant.
type Node struct {
	id  int
	cfg Config
	// nbrs is the sorted neighbor list, shared with the view table:
	// the neighbor at position i of nbrs has its view at position i of
	// views, so loops over nbrs read views without an ID lookup.
	nbrs []int

	// The paper's per-node variables (§3.1).
	root     int
	parent   int
	distance int
	dmax     int
	submax   int
	color    bool

	// The node's other flags sit next to color so that the five bools
	// share one word, which keeps Node in the 416-byte size class (the
	// closure workload builds 65,536 nodes per repetition).
	//
	// literal selects the edge exchange this node initiates: the paper's
	// Remove/Back choreography (NewLiteralNode) instead of the Reverse
	// chain (NewNode). Every node handles both exchanges' messages.
	literal bool
	// tickMoved records whether the last Tick itself mutated state; see
	// restVersion.
	tickMoved bool
	// treeStab and localStab are the cached tree_stabilized and
	// locally_stabilized; see derivedAt.
	treeStab, localStab bool

	// Local copies of neighbor variables, dense by neighbor position.
	views localview.Table
	// parentPos memoizes the position of parent in nbrs (-1 when the
	// parent is not a neighbor). parentView re-checks it against nbrs on
	// every use, so the sites that write parent never update it.
	parentPos int

	// version counts mutations of the protocol-visible state (own
	// variables and views). Every mutation site below bumps it (no-op
	// writes are skipped so a quiesced node's version is a fixed point).
	// Two caches depend on that: the simulator's incremental fingerprint
	// cache re-hashes a node only when its version moved — the O(1)
	// dirty check that keeps quiescence detection off the hot path — and
	// the node's own derived values below are recomputed only then.
	version uint64
	// derivedAt is the state version at which deg, treeStab and
	// localStab were last computed (derive). Every reader of Deg,
	// treeStabilized and locallyStabilized goes through derive, so each
	// value costs one pass over the views per version, not one per read.
	derivedAt uint64
	deg       int

	// Implementation bookkeeping (transient; not protocol state).
	tick        int
	nextSearch  []int       // per neighbor position: earliest tick to search that non-tree edge
	lastDeblock map[int]int // per blocker: last tick we broadcast it (nil until the first)
	// info is the InfoMsg that sendInfo boxed last; it is sent again, as
	// the same interface value, while the gossip content repeats.
	info sim.Message
	// Idle-tick state, read by NextWork (event-core parking) and by Tick
	// itself: restVersion is the state version at the end of the last
	// Tick, tickMoved records whether that Tick itself mutated state (a
	// module still converging to its fixed point must keep ticking even
	// though deliveries have stopped). A node whose version equals
	// restVersion with tickMoved false is idle: its tree and degree
	// modules sit at their fixed point, so ticking can only repeat its
	// gossip and its search retries — the event core parks it, and Tick
	// skips the two modules.
	restVersion uint64
	// suppress is the duplicate-token pruning state (nil under
	// RetryPaper); see searchSuppressor.
	suppress *searchSuppressor
	// Adaptive-backoff state (RetryBackoff). Transient like
	// the suppressor: never fingerprinted, and moving it must not bump
	// the state version — the backoff observes quiescence, it is not
	// part of it. backoffTier is the doubling exponent (effective
	// window = PruneWindow << tier, at most maxBackoffTier), earned
	// while version == backoffVersion and reset lazily the moment they
	// diverge; backoffTick limits deepening to once per tick so several
	// edges lapsing together still advance one tier per round.
	backoffTier    int
	backoffVersion uint64
	backoffTick    int

	// audit, when non-nil, observes every accepted tree mutation (see
	// MutationHook). It lives on the Node — not on Config — because
	// Config must stay comparable (the harness keys caches by it).
	audit MutationHook

	stats Stats
}

// MutationKind classifies an accepted tree mutation for audit hooks.
// The values are stable: the audit log folds them into its hash chain
// (internal/auditlog maps them 1:1 onto its Kind values).
type MutationKind uint8

// Mutation kinds reported to MutationHook.
const (
	// MutationParent: the tree module adopted a better parent
	// (change_parent_to).
	MutationParent MutationKind = 1
	// MutationReset: the tree module re-created a local root
	// (create_new_root), including deblock-triggered resets.
	MutationReset MutationKind = 2
	// MutationExchange: the degree-reduction choreography re-parented
	// the node (a blocking-edge exchange hop).
	MutationExchange MutationKind = 3
)

// MutationHook observes one accepted tree mutation: the node changed
// its parent pointer (or re-rooted) with the given old and new parent.
// Hooks fire inside the mutation site, after the changed-value guard
// accepted the write — never on no-op module runs — so the call
// sequence is a pure function of the node's execution.
type MutationHook func(kind MutationKind, oldParent, newParent int)

// SetMutationHook installs the audit observer (nil disables). Drivers
// install it before the run starts; the hook must not retain references
// into the node.
func (n *Node) SetMutationHook(h MutationHook) { n.audit = h }

// Stats counts protocol events at this node (observability only; not
// part of the protocol state or the memory-complexity accounting). The
// exchange counters of the exchange a node does not run stay zero.
type Stats struct {
	SearchesLaunched  int // DFS tokens this node initiated
	CyclesClassified  int // actionOnCycle invocations at this node
	ExchangesComplete int // one per completed edge exchange
	DeblocksTriggered int // Deblock floods this node started or forwarded
	// SearchesSuppressed counts Search launches and token arrivals
	// dropped by the duplicate-pruning module; always zero under
	// RetryPaper.
	SearchesSuppressed int

	// Chain exchange.
	ExchangesApplied int // reversal hops applied (first/middle/final)
	ChainsAborted    int // reversal hops dropped by a staleness check

	// Literal exchange.
	RemovesStarted int // Improve invocations (Remove sent across the init edge)
	ReorientHops   int // re-parenting hops applied in the reorientation phase
	BacksStarted   int // case-(b) Back messages emitted at the target edge
	ChoreoAborted  int // Remove/Back hops discarded by a staleness check
}

// Aborted is the number of exchange hops dropped by a staleness check,
// whichever exchange ran.
func (s Stats) Aborted() int { return s.ChainsAborted + s.ChoreoAborted }

// NewLiteralNode is NewNode for a node that carries out improving edge
// exchanges with the paper's literal Remove/Back choreography.
func NewLiteralNode(id int, neighbors []int, cfg Config) *Node {
	n := NewNode(id, neighbors, cfg)
	n.literal = true
	return n
}

// NewNode creates a chain-exchange node in a clean initial state (its
// own root). Use Corrupt or SetState to start from an arbitrary
// configuration. The neighbor list may come in any order: the node
// keeps it sorted, which its DFS cursor and its position-indexed view
// loops both rely on.
func NewNode(id int, neighbors []int, cfg Config) *Node {
	views := localview.NewTable(neighbors)
	n := &Node{
		id:         id,
		cfg:        cfg,
		nbrs:       views.IDs(),
		root:       id,
		parent:     id,
		distance:   0,
		views:      views,
		parentPos:  -1,
		nextSearch: make([]int, views.Len()),
		tickMoved:  true,       // never ticked: the first tick must run
		derivedAt:  ^uint64(0), // never derived: the first read computes
	}
	if cfg.Retry != RetryPaper {
		n.suppress = newSearchSuppressor()
	}
	for i, u := range n.nbrs {
		*n.views.At(i) = View{Root: u, Parent: u}
	}
	return n
}

// Clone returns a deep copy of the node (state, views and bookkeeping),
// used by the exhaustive model checker to branch executions.
func (n *Node) Clone() *Node {
	c := *n
	c.views = n.views.Clone()
	c.nextSearch = slices.Clone(n.nextSearch)
	c.lastDeblock = make(map[int]int, len(n.lastDeblock))
	for k, v := range n.lastDeblock {
		c.lastDeblock[k] = v
	}
	if n.suppress != nil {
		c.suppress = n.suppress.clone()
	}
	return &c
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// Root returns the locally known root of the spanning tree.
func (n *Node) Root() int { return n.root }

// Parent returns the node's parent pointer (itself when it is a root).
func (n *Node) Parent() int { return n.parent }

// Distance returns the node's distance-to-root variable.
func (n *Node) Distance() int { return n.distance }

// Dmax returns the node's estimate of deg(T).
func (n *Node) Dmax() int { return n.dmax }

// Submax returns the subtree-maximum feedback value (the PIF fold).
func (n *Node) Submax() int { return n.submax }

// Color returns the freeze-wave color bit.
func (n *Node) Color() bool { return n.color }

// Deg returns the node's degree in the current tree, derived from its own
// parent pointer and its neighbors' (locally copied) parent pointers —
// the paper's edge_status. It is cached: counted once per state version
// (derive).
func (n *Node) Deg() int {
	n.derive()
	return n.deg
}

// treeEdgeAt is isTreeEdge for the neighbor at position i of nbrs.
func (n *Node) treeEdgeAt(i int) bool {
	return (n.parent == n.nbrs[i] && n.id != n.root) || n.views.At(i).Parent == n.id
}

// parentView returns the local copy of the parent's variables, or nil
// when the parent is not a neighbor (the node is its own root, or the
// pointer is forged).
func (n *Node) parentView() *View {
	if p := n.parentPos; p >= 0 && n.nbrs[p] == n.parent {
		return n.views.At(p)
	}
	n.parentPos = n.views.Index(n.parent)
	if n.parentPos < 0 {
		return nil
	}
	return n.views.At(n.parentPos)
}

// isTreeEdge is the paper's is_tree_edge(v,u) evaluated on v's local
// copies: parent_v = u or parent_u = v.
func (n *Node) isTreeEdge(u int) bool {
	if n.parent == u && n.id != n.root {
		return true
	}
	if v := n.views.Get(u); v != nil && v.Parent == n.id {
		return true
	}
	return false
}

// SetState overwrites the protocol variables (test/fault injection).
func (n *Node) SetState(root, parent, distance, dmax, submax int, color bool) {
	n.root, n.parent, n.distance = root, parent, distance
	n.dmax, n.submax, n.color = dmax, submax, color
	n.version++
}

// SetView overwrites the local copy of neighbor u (test/fault injection).
func (n *Node) SetView(u int, v View) {
	p := n.views.Get(u)
	if p == nil {
		panic("core: SetView for non-neighbor")
	}
	*p = v
	n.version++
}

// NodeStats returns the node's protocol event counters.
func (n *Node) NodeStats() Stats { return n.stats }

// ViewOf returns a copy of the local view of neighbor u; ok is false for
// non-neighbors. Used by the harness to carry state across topology
// changes (the super-stabilization experiments).
func (n *Node) ViewOf(u int) (View, bool) {
	v := n.views.Get(u)
	if v == nil {
		return View{}, false
	}
	return *v, true
}

// Corrupt randomizes every protocol variable and neighbor copy — the
// arbitrary initial configuration of Definition 1. idSpace is the
// exclusive upper bound for forged IDs/roots (use n).
func (n *Node) Corrupt(rng *rand.Rand, idSpace int) {
	pick := func() int {
		// Parent candidates: self or any neighbor (coherent domain), or a
		// completely bogus value with small probability.
		if rng.Float64() < 0.2 {
			return rng.Intn(idSpace)
		}
		if len(n.nbrs) == 0 || rng.Float64() < 0.3 {
			return n.id
		}
		return n.nbrs[rng.Intn(len(n.nbrs))]
	}
	n.root = rng.Intn(idSpace)
	n.parent = pick()
	n.distance = rng.Intn(n.cfg.MaxDist + 2)
	n.dmax = rng.Intn(idSpace + 2)
	n.submax = rng.Intn(idSpace + 2)
	n.color = rng.Intn(2) == 0
	for i := range n.nbrs {
		*n.views.At(i) = View{
			Root:     rng.Intn(idSpace),
			Parent:   rng.Intn(idSpace),
			Distance: rng.Intn(n.cfg.MaxDist + 2),
			Dmax:     rng.Intn(idSpace + 2),
			Submax:   rng.Intn(idSpace + 2),
			Deg:      rng.Intn(idSpace + 1),
			Color:    rng.Intn(2) == 0,
		}
	}
	n.version++
}

// Tick implements sim.Process: one iteration of the paper's "do forever"
// loop — run the modules in priority order, then gossip. An idle tick
// skips the tree and degree modules and re-sends the boxed InfoMsg: the
// last tick left both modules at their fixed point on this very state,
// and they are deterministic functions of it, so running them again
// would change nothing.
func (n *Node) Tick(ctx *sim.Context) {
	n.tick++
	if n.idle() {
		n.maybeStartSearches(ctx)
		n.gossip(ctx)
		return
	}
	entry := n.version
	n.runTreeModule()
	n.runDegreeModule()
	n.maybeStartSearches(ctx)
	n.sendInfo(ctx)
	n.tickMoved = n.version != entry
	n.restVersion = n.version
}

// idle reports that the last tick found a fixed point (tickMoved false)
// and nothing changed since (version == restVersion).
func (n *Node) idle() bool { return !n.tickMoved && n.version == n.restVersion }

// NextWork implements sim.EventProcess. An idle node's tick can only
// repeat itself; the single tick-driven schedule left is the periodic
// cycle-search retry, whose earliest deadline over the eligible non-tree
// edges bounds how long the node may sleep.
func (n *Node) NextWork() int {
	if !n.idle() {
		return 1
	}
	if n.dmax <= 2 || !n.locallyStabilized() {
		return sim.NoWork
	}
	next := -1
	for i, u := range n.nbrs {
		if n.id > u || n.treeEdgeAt(i) {
			continue
		}
		due := n.nextSearch[i]
		// With adaptive backoff, a retry inside the effective window
		// would be pruned at the launch site anyway; park straight
		// through to the recorded pass's expiry so a deeply backed-off
		// node costs no wake-ups at all (deliveries still wake it, and
		// a version bump resets the schedule before the next decision).
		if n.cfg.Retry == RetryBackoff {
			if pass := n.searchPassTick(u); pass > due {
				due = pass
			}
		}
		if next == -1 || due < next {
			next = due
		}
	}
	if next == -1 {
		return sim.NoWork
	}
	if w := next - n.tick; w > 1 {
		return w
	}
	return 1
}

// SkipTicks implements sim.EventProcess: advance the local clock over
// parked rounds so tick-keyed schedules (search retries, deblock and
// suppression windows) keep their round meaning when the node wakes.
func (n *Node) SkipTicks(k int) { n.tick += k }

// Receive implements sim.Process.
func (n *Node) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	switch msg := m.(type) {
	case InfoMsg:
		n.handleInfo(from, msg)
	case *SearchMsg:
		n.handleSearch(ctx, from, msg)
	case ReverseMsg:
		n.handleReverse(ctx, from, msg)
	case RemoveMsg:
		n.handleRemove(ctx, from, msg)
	case BackMsg:
		n.handleBack(ctx, from, msg)
	case DeblockMsg:
		n.handleDeblock(ctx, from, msg)
	case UpdateDistMsg:
		n.handleUpdateDist(ctx, from, msg)
	}
}

// sendInfo gossips the current variables to every neighbor. An InfoMsg
// is immutable once sent, so one boxed interface value serves every
// link, and the box outlives the tick: while the content repeats what
// the node sent last (the common case once a neighborhood quiesces) the
// same value is sent again and the tick allocates nothing.
func (n *Node) sendInfo(ctx *sim.Context) {
	info := InfoMsg{
		Root:     n.root,
		Parent:   n.parent,
		Distance: n.distance,
		Dmax:     n.dmax,
		Submax:   n.submax,
		Deg:      n.Deg(),
		Color:    n.color,
	}
	if last, ok := n.info.(InfoMsg); !ok || last != info {
		n.info = info
	}
	n.gossip(ctx)
}

// gossip sends the boxed n.info to every neighbor.
func (n *Node) gossip(ctx *sim.Context) {
	for _, u := range n.nbrs {
		ctx.Send(u, n.info)
	}
}

// handleInfo is the paper's Update_State: refresh the local copy, then
// re-run the correction rules. The copy is skipped (and the state
// version left untouched) when the gossip repeats what we already hold —
// the common case once the neighborhood quiesces.
func (n *Node) handleInfo(from int, m InfoMsg) {
	v := n.views.Get(from)
	if v == nil {
		return
	}
	if v.Root != m.Root || v.Parent != m.Parent || v.Distance != m.Distance ||
		v.Dmax != m.Dmax || v.Submax != m.Submax || v.Deg != m.Deg ||
		v.Color != m.Color {
		v.Root, v.Parent, v.Distance = m.Root, m.Parent, m.Distance
		v.Dmax, v.Submax, v.Deg, v.Color = m.Dmax, m.Submax, m.Deg, m.Color
		n.version++
	}
	n.runTreeModule()
}

// Fingerprint implements sim.Fingerprinter over the protocol variables
// and neighbor copies (message traffic excluded), so quiescence means
// both the tree and all views have stopped changing.
func (n *Node) Fingerprint() uint64 {
	return localview.Fingerprint(n.root, n.parent, n.distance, n.dmax,
		n.submax, n.color, &n.views)
}

// StateVersion implements sim.StateVersioner: it moves exactly when the
// fingerprinted state may have changed.
func (n *Node) StateVersion() uint64 { return n.version }

// StateBits implements sim.StateSizer: the paper's O(δ log n) memory —
// six own variables plus a seven-word copy per neighbor, each word wide
// enough to hold MaxDist, the largest legal variable value (the color
// bit counted as one word for simplicity).
func (n *Node) StateBits() int {
	words := 6 + 7*len(n.nbrs)
	return words * bitsFor(n.cfg.MaxDist)
}
