package paperproto

import (
	"math/rand"

	"mdst/internal/core"
	"mdst/internal/localview"
	"mdst/internal/sim"
)

// Config reuses the primary implementation's tuning knobs: the two
// variants share the spanning-tree, maximum-degree and cycle-search
// modules and differ only in the exchange choreography.
type Config = core.Config

// DefaultConfig returns the configuration used by the experiments for a
// network of n nodes (identical to core.DefaultConfig).
func DefaultConfig(n int) Config { return core.DefaultConfig(n) }

// View is a node's local copy of one neighbor's variables (send/receive
// atomicity), refreshed only by InfoMsg. Both protocol variants share
// the dense localview storage.
type View = localview.View

// Node is one participant of the literal-choreography protocol variant.
type Node struct {
	id   int
	cfg  Config
	nbrs []int

	// The paper's per-node variables (§3.1).
	root     int
	parent   int
	distance int
	dmax     int
	submax   int
	color    bool

	// Local copies of neighbor variables, dense by neighbor position.
	views localview.Table

	// version counts protocol-state mutations; see the matching field in
	// core.Node — the simulator's incremental fingerprint cache re-hashes
	// a node only when its version moved.
	version uint64

	// Implementation bookkeeping (transient; not protocol state).
	tick        int
	nextSearch  map[int]int
	lastDeblock map[int]int
	// Event-core parking state (sim.EventProcess); see the matching
	// fields in core.Node.
	restVersion uint64
	tickMoved   bool
	// suppress is the shared duplicate-token pruning state (nil unless
	// Config.SuppressSearches); see core.SearchSuppressor.
	suppress *core.SearchSuppressor
	// Adaptive-backoff state (Config.BackoffSearches); see the matching
	// fields in core.Node — transient, never fingerprinted, never bumps
	// the state version.
	backoffTier    int
	backoffVersion uint64
	backoffTick    int

	// audit observes accepted tree mutations; see core.MutationHook
	// (the hook type and kind values are shared across variants so
	// audit-log chains are comparable between implementations).
	audit core.MutationHook

	stats Stats
}

// SetMutationHook installs the audit observer (nil disables); same
// contract as core.Node.SetMutationHook.
func (n *Node) SetMutationHook(h core.MutationHook) { n.audit = h }

// Stats counts protocol events at this node (observability only).
type Stats struct {
	SearchesLaunched  int // DFS tokens this node initiated
	CyclesClassified  int // actionOnCycle invocations at this node
	RemovesStarted    int // Improve invocations (Remove sent across the init edge)
	ReorientHops      int // re-parenting hops applied in the reorientation phase
	BacksStarted      int // case-(b) Back messages emitted at the target edge
	ExchangesComplete int // source_remove attachments: one per completed exchange
	ChoreoAborted     int // Remove/Back hops discarded by a staleness check
	ReversesSent      int // literal Reverse messages emitted (Reverse_Aux path)
	DeblocksTriggered int // Deblock floods this node started or forwarded
	// SearchesSuppressed counts Search launches and token arrivals
	// dropped by duplicate pruning (Config.SuppressSearches); always zero
	// with the knob off.
	SearchesSuppressed int
}

// NewNode creates a node in a clean initial state (its own root).
func NewNode(id int, neighbors []int, cfg Config) *Node {
	n := &Node{
		id:          id,
		cfg:         cfg,
		nbrs:        append([]int(nil), neighbors...),
		root:        id,
		parent:      id,
		views:       localview.NewTable(neighbors),
		nextSearch:  make(map[int]int),
		lastDeblock: make(map[int]int),
		tickMoved:   true, // never ticked: the first tick must run
	}
	if cfg.SuppressSearches {
		n.suppress = core.NewSearchSuppressor()
	}
	for _, u := range n.nbrs {
		*n.views.Get(u) = View{Root: u, Parent: u}
	}
	return n
}

// Clone returns a deep copy of the node (state, views and bookkeeping),
// used by the exhaustive model checker to branch executions.
func (n *Node) Clone() *Node {
	c := *n
	c.views = n.views.Clone()
	c.nextSearch = make(map[int]int, len(n.nextSearch))
	for k, v := range n.nextSearch {
		c.nextSearch[k] = v
	}
	c.lastDeblock = make(map[int]int, len(n.lastDeblock))
	for k, v := range n.lastDeblock {
		c.lastDeblock[k] = v
	}
	if n.suppress != nil {
		c.suppress = n.suppress.Clone()
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

// Color returns the freeze-wave color bit.
func (n *Node) Color() bool { return n.color }

// NodeStats returns the node's protocol event counters.
func (n *Node) NodeStats() Stats { return n.stats }

// Deg returns the node's degree in the current tree (the paper's
// edge_status derived from parent pointers and neighbor copies).
func (n *Node) Deg() int {
	d := 0
	for _, u := range n.nbrs {
		if n.isTreeEdge(u) {
			d++
		}
	}
	return d
}

// isTreeEdge is the paper's is_tree_edge(v,u) on v's local copies.
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
		panic("paperproto: SetView for non-neighbor")
	}
	*p = v
	n.version++
}

// Corrupt randomizes every protocol variable and neighbor copy — the
// arbitrary initial configuration of Definition 1.
func (n *Node) Corrupt(rng *rand.Rand, idSpace int) {
	pick := func() int {
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
	for _, u := range n.nbrs {
		*n.views.Get(u) = View{
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

// Init implements sim.Process. Deliberately empty: self-stabilization
// must work from whatever state the node carries.
func (n *Node) Init(ctx *sim.Context) {}

// Tick implements sim.Process: one iteration of the "do forever" loop.
func (n *Node) Tick(ctx *sim.Context) {
	entry := n.version
	n.tick++
	n.runTreeModule()
	n.runDegreeModule()
	if !n.cfg.DisableReduction {
		n.maybeStartSearches(ctx)
	}
	n.sendInfo(ctx)
	n.tickMoved = n.version != entry
	n.restVersion = n.version
}

// NextWork implements sim.EventProcess; same reasoning as
// core.Node.NextWork — the modules are deterministic in the protocol
// state, so with no input and a fixed-point last tick the only
// tick-driven schedule left is the periodic cycle-search retry.
func (n *Node) NextWork() int {
	if n.tickMoved || n.version != n.restVersion {
		return 1
	}
	if n.cfg.DisableReduction || n.dmax <= 2 || !n.locallyStabilized() {
		return sim.NoWork
	}
	next := -1
	for _, u := range n.nbrs {
		if n.isTreeEdge(u) || n.id > u {
			continue
		}
		due := n.nextSearch[u]
		// With adaptive backoff, park straight through to the recorded
		// pass's expiry (a retry inside the effective window would be
		// pruned at the launch site anyway); see core.Node.NextWork.
		if n.cfg.BackoffSearches {
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
// parked rounds so tick-keyed schedules keep their round meaning.
func (n *Node) SkipTicks(k int) { n.tick += k }

// Receive implements sim.Process.
func (n *Node) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	switch msg := m.(type) {
	case core.InfoMsg:
		n.handleInfo(from, msg)
	case core.SearchMsg:
		if !n.cfg.DisableReduction {
			n.handleSearch(ctx, from, msg)
		}
	case RemoveMsg:
		if !n.cfg.DisableReduction {
			n.handleRemove(ctx, from, msg)
		}
	case BackMsg:
		if !n.cfg.DisableReduction {
			n.handleBack(ctx, from, msg)
		}
	case ReverseMsg:
		if !n.cfg.DisableReduction {
			n.handleReverseMsg(ctx, from, msg)
		}
	case core.DeblockMsg:
		if !n.cfg.DisableReduction {
			n.handleDeblock(ctx, from, msg)
		}
	case core.UpdateDistMsg:
		n.handleUpdateDist(ctx, from, msg)
	}
}

// sendInfo gossips the current variables to every neighbor. The
// message is boxed once and the interface value shared: messages are
// immutable once sent, so one allocation per tick serves every link.
func (n *Node) sendInfo(ctx *sim.Context) {
	var msg sim.Message = core.InfoMsg{
		Root:     n.root,
		Parent:   n.parent,
		Distance: n.distance,
		Dmax:     n.dmax,
		Submax:   n.submax,
		Deg:      n.Deg(),
		Color:    n.color,
	}
	for _, u := range n.nbrs {
		ctx.Send(u, msg)
	}
}

// handleInfo is the paper's Update_State: refresh the local copy, then
// re-run the correction rules. A gossip that repeats the held copy is
// skipped so the state version stays put once the neighborhood quiesces.
func (n *Node) handleInfo(from int, m core.InfoMsg) {
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

// Fingerprint implements sim.Fingerprinter (protocol variables and
// neighbor copies; message traffic excluded) via the shared localview
// implementation.
func (n *Node) Fingerprint() uint64 {
	return localview.Fingerprint(n.root, n.parent, n.distance, n.dmax,
		n.submax, n.color, &n.views)
}

// StateVersion implements sim.StateVersioner: it moves exactly when the
// fingerprinted state may have changed.
func (n *Node) StateVersion() uint64 { return n.version }

// StateBits implements sim.StateSizer: same accounting as the primary
// variant — the choreography adds no per-node state, only messages.
func (n *Node) StateBits() int {
	words := 6 + 7*len(n.nbrs)
	return words * n.cfg.WordBits
}
