// Package sim is the distributed-system substrate of the reproduction: an
// asynchronous message-passing network with reliable FIFO links and
// send/receive atomicity, executed either by deterministic seeded
// schedulers (synchronous, random-asynchronous, adversarial) or by a live
// goroutine-per-node runtime with real channels (live.go).
//
// The paper's model (§2) maps as follows: each node is a Process driven
// by Tick (the "do forever: send InfoMsg" loop) and Receive (one message
// per atomic step); links are per-direction FIFO queues; a round is the
// standard asynchronous round — the minimal execution segment in which
// every node takes at least one step and every message pending at the
// segment's start is delivered.
//
// The run loop is incremental end to end so that matrices scale past
// n=256 (the per-round work used to be dominated by quiescence
// bookkeeping): per-node fingerprints are cached and re-hashed only for
// nodes whose state version moved since the last round; round accounting
// is an epoch-stamped step array (no per-round map churn). The message
// path does no search and no hashing. A link is addressed by the
// neighbor's position in the sender's sorted neighbor list
// (Context.SendAt), so a send finds it at the sender's link offset plus
// that position; each link records the sender's position in the
// receiver's list, built once with the links, so a delivery hands it to
// the receiver (Context.FromPos). Context.Send, by neighbor ID, is the
// one place that searches. Sent and pending messages are counted per
// kind in a small per-network table (a network sees a handful of kinds)
// that Metrics copies into SentByKind; a queued message carries its row,
// so a delivery neither asks its kind nor scans the table. The
// prefix-sum index behind RandomPendingLink is built on its first call,
// so only networks that draw random deliveries (the async scheduler)
// keep it up to date on every send and delivery.
//
// # Dual execution cores
//
// The package has two execution cores over the same Network:
//
//   - The compatibility core (Network.Run + the Scheduler
//     implementations in sched.go) replays the original per-round full
//     sweep: every round delivers the pending snapshot and ticks every
//     node, consuming the seeded RNG in the exact legacy order. Every
//     committed byte-identity baseline (the default scenario matrix,
//     BENCH_scale.json) is produced by this core and must stay
//     byte-identical under `make drift`.
//
//   - The event core (Network.RunEvents, event.go) is a discrete-event
//     scheduler over the same links and processes: pending deliveries
//     and per-node tick timers are bucketed by virtual round in a
//     calendar queue, and only nodes with work — an undelivered
//     message, a state change since their last tick, or a due search
//     retry (the EventProcess interface) — are touched. Idle nodes park;
//     their tick counters are fast-forwarded on wake (SkipTicks) so
//     tick-denominated protocol schedules stay aligned with virtual
//     rounds. Round numbers, Metrics.Rounds, LastChangeRound and the
//     quiescence window keep their meaning as a derived view of virtual
//     time, and convergence can be declared by fast-forwarding over
//     empty buckets (empty queue + expired timers). Each round is
//     ordered as SyncScheduler orders it; the async and adversarial
//     schedulers exist only on the compat core.
//
// Engine selection lives in harness.RunSpec.Engine: "compat" (default,
// byte-identical baselines) or "event" (frontier-only scheduling for
// large n). The two cores are differential-tested for outcome
// equivalence on paired seeds.
package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"mdst/internal/detect"
	"mdst/internal/graph"
)

// NodeID identifies a node; IDs are the graph's dense node indices and
// double as the unique, totally ordered identifiers of the paper's model.
type NodeID = int

// Message is anything a Process sends over a link. Kind groups messages
// for metrics; Size is the abstract message length in O(log n)-bit words,
// used by experiment E4 to check the paper's O(n log n) buffer claim.
//
// Sending hands a message off. Once Context.Send or Context.SendAt
// returns, neither the sender nor the transport reads or writes it; it
// belongs to the link and then to the receiver. A transport reads what
// it needs (Kind, Size) before the handoff. The rule costs nothing for
// immutable values, and it lets a message travel by pointer and be
// edited in place by each holder in turn. A receiver that ends a
// message's life may recycle it (a pool), since no one else holds it:
// the last holder's release is just one more handoff.
type Message interface {
	Kind() string
	Size() int
}

// Process is a node program. Implementations must confine all state to
// the process itself: the only interaction with the world is through the
// Context passed to Tick and Receive. The runner relies on that
// confinement: a step at node v can only change v's own state.
//
// There is no start hook. A self-stabilizing run starts from whatever
// (possibly corrupted) state the process carries, so a runtime's first
// step at a node is an ordinary Tick or Receive, and a restart is no
// different from a pause.
type Process interface {
	// Tick is one iteration of the node's "do forever" loop.
	Tick(ctx *Context)
	// Receive handles a single message from neighbor from — one atomic
	// step in the send/receive atomicity model. ctx.FromPos() is from's
	// position in ctx.Neighbors() for the duration of the call.
	Receive(ctx *Context, from NodeID, m Message)
}

// Fingerprinter lets the runner detect quiescence: a process returns a
// hash of its protocol-visible state (message traffic excluded).
type Fingerprinter interface {
	Fingerprint() uint64
}

// StateVersioner is an optional fast path for quiescence detection: a
// process reports a counter that moves whenever its fingerprinted state
// may have changed (and stays put across no-op steps). The runner then
// skips re-hashing nodes whose version did not move — at quiescence
// every node ticks every round but nothing changes, so the per-round
// fingerprint cost drops from O(Σ degree) to O(n) version compares.
// Processes that do not implement it are re-hashed after every step
// that touches them (always correct, just slower).
type StateVersioner interface {
	StateVersion() uint64
}

// StateSizer reports the current size of a process's state in bits, for
// the memory experiment E3.
type StateSizer interface {
	StateBits() int
}

// RetryAware is implemented by processes whose worst-case search-retry
// spacing varies over time (the adaptive suppression backoff): the
// quiescence-stability window must track the current maximum over
// nodes, not a static per-run constant. CurrentRetryPeriod must be a
// pure read.
type RetryAware interface {
	CurrentRetryPeriod() int
}

// Context gives a process its identity, neighborhood and send primitive.
// A link is addressed by the neighbor's position in Neighbors, as the
// CONGEST model addresses a node's incident edges: SendAt(i, m) sends on
// the link to Neighbors()[i], and while a message is received FromPos
// names the link it came in on. Every transport implements its send by
// position; Send, by neighbor ID, is the only ID→position search.
type Context struct {
	id   NodeID
	nbrs []NodeID
	send func(from NodeID, i int, m Message)
	// at is the position in nbrs of the sender of the message being
	// received, -1 outside a receive step.
	at int
}

// NewContext builds a standalone context for harnesses outside Network
// (netrun's node loops, the exhaustive model checker, tests): send
// receives every outgoing message with its destination's position in
// neighbors. A position means something only against the sorted list,
// so NewContext panics unless neighbors is strictly increasing.
func NewContext(id NodeID, neighbors []NodeID, send func(from NodeID, i int, m Message)) *Context {
	for i := 1; i < len(neighbors); i++ {
		if neighbors[i-1] >= neighbors[i] {
			panic(fmt.Sprintf("sim: node %d's neighbor list %v is not strictly increasing", id, neighbors))
		}
	}
	return &Context{id: id, nbrs: append([]NodeID(nil), neighbors...), send: send, at: -1}
}

// ID returns the node's identifier.
func (c *Context) ID() NodeID { return c.id }

// Neighbors returns the node's neighbor IDs in increasing order; a
// neighbor's index in it is its position. The slice is shared; callers
// must not modify it.
func (c *Context) Neighbors() []NodeID { return c.nbrs }

// SendAt enqueues m on the FIFO link to the neighbor at position i of
// Neighbors. A position outside the list panics. SendAt hands m off
// (see Message): after it, the caller neither reads nor writes m.
func (c *Context) SendAt(i int, m Message) {
	if uint(i) >= uint(len(c.nbrs)) {
		panic("sim: send to a position outside the neighbor list")
	}
	c.send(c.id, i, m)
}

// Send enqueues m on the FIFO link to neighbor `to`: SendAt at to's
// position. Sending to a non-neighbor panics: the paper's algorithm is
// strictly local. Send hands m off (see Message).
func (c *Context) Send(to NodeID, m Message) {
	i, ok := slices.BinarySearch(c.nbrs, to)
	if !ok {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbor %d", c.id, to))
	}
	c.send(c.id, i, m)
}

// FromPos returns the position in Neighbors of the sender of the
// message being received: Neighbors()[FromPos()] is Receive's from. It
// is -1 outside a receive step.
func (c *Context) FromPos() int { return c.at }

// Deliver runs p's receive step for m from the neighbor at position i
// of Neighbors, with FromPos reading i for its duration. Drivers outside
// this package, and tests that call a handler directly, deliver
// through it.
func (c *Context) Deliver(p Process, i int, m Message) {
	from := c.nbrs[i]
	c.at = i
	p.Receive(c, from, m)
	c.at = -1
}

// envelope is a queued message with a global sequence number used for
// round accounting and its row of the network's kind table. The sender
// is the link's.
type envelope struct {
	msg  Message
	seq  uint64
	kind int
}

// link is one directed FIFO queue implemented as a re-slicing deque. at
// is the sending node's position in the receiver's neighbor list, the
// reverse index a delivery hands to the receiver.
type link struct {
	to   NodeID
	at   int
	buf  []envelope
	head int
}

func (l *link) empty() bool { return l.head >= len(l.buf) }
func (l *link) len() int    { return len(l.buf) - l.head }

func (l *link) push(e envelope) { l.buf = append(l.buf, e) }

func (l *link) pop() envelope {
	e := l.buf[l.head]
	l.buf[l.head] = envelope{} // release for GC
	l.head++
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
	}
	return e
}

// Metrics aggregates execution statistics.
type Metrics struct {
	Rounds          int
	Events          int64
	Deliveries      int64
	Ticks           int64
	SentByKind      map[string]int64 // refreshed by each Network.Metrics call
	MaxMsgSize      int
	MaxMsgSizeKind  string
	MaxQueueLen     int
	LastChangeRound int // round index of the most recent fingerprint change
	// EventsAtLastChange is the Events counter as of the last fingerprint
	// change. Events - EventsAtLastChange is the tail work executed after
	// the network stopped changing (the quiescence window); for the event
	// core this tail is the frontier figure of merit — sub-linear in n
	// once idle nodes park — while the compat core's tail stays O(n+m)
	// per round by construction.
	EventsAtLastChange int64
	// FingerprintRecomputes counts per-node state hashes performed for
	// quiescence detection. It is deterministic for a seeded run and is
	// the committed figure of merit for the incremental fingerprint cache
	// (BENCH_scale.json compares it with nodes × (rounds + 2), the cost
	// of hashing every node at every Fingerprint call of a Run).
	FingerprintRecomputes int64
}

func newMetrics() *Metrics {
	return &Metrics{SentByKind: make(map[string]int64)}
}

// Network is the deterministic simulated network.
type Network struct {
	g     *graph.Graph
	procs []Process
	ctxs  []Context

	// links holds node u's outgoing links at linkOff[u] onward, in the
	// order of u's sorted neighbor list, so the link from u to its i-th
	// neighbor is links[linkOff[u]+i]. Links and contexts are held by
	// value, so a network's build allocates each array once, and the
	// reverse index lives in the links (link.at) at no extra size.
	links    []link
	linkOff  []int
	nonEmpty []int // indices of non-empty links
	nePos    []int // link index -> position in nonEmpty (-1 when empty)
	// pendingIdx mirrors the queue length of nonEmpty[p] at position p:
	// the prefix-sum index that makes RandomPendingLink O(log links)
	// while preserving the exact idx→link mapping of the old linear walk
	// (same nonEmpty order, same cumulative-length threshold). It is
	// built by the first RandomPendingLink call and maintained from then
	// on (idxLive); until then sends and deliveries skip it.
	pendingIdx fenwick
	idxLive    bool
	nextSeq    uint64

	// sendHook, when set, observes every enqueued message by link index.
	// The adversarial scheduler uses it to keep its longest-queue heap
	// current, the event core to schedule delivery events; nil (one
	// predictable branch) on every other path.
	sendHook func(li int)

	pendingTotal int         // undelivered messages across all links
	kinds        []kindCount // per-kind counters, in first-send order

	// Lossy-link fault injection (violates the paper's reliable-links
	// assumption; used by the robustness extension E9): each delivery is
	// dropped with probability dropRate, drawn from the scheduling RNG.
	dropRate float64
	dropped  int64

	// Asynchronous round accounting, O(1) per step and per round reset:
	// a node has stepped in the current round iff stepped[id] == epoch.
	snapshotSeq uint64 // messages with seq <= snapshotSeq are "old"
	pendingOld  int    // undelivered old messages
	epoch       uint32
	stepped     []uint32
	needSteps   int // nodes that still owe a step this round

	// Incremental fingerprint cache: fps holds each node's last known
	// state hash, combined is their order-independent mix. A step at
	// node v pushes v onto dirty; the next Fingerprint call re-hashes
	// only dirty nodes (version-skipped when the process exposes
	// StateVersion) and patches combined in O(changed).
	fps        []uint64
	versions   []uint64
	versioners []StateVersioner // non-nil where the process supports it
	dirtyMark  []bool
	dirty      []NodeID
	combined   uint64

	rng     *rand.Rand
	metrics *Metrics
}

// kindCount is one message kind's row of the per-network counter table.
type kindCount struct {
	kind    string
	sent    int64
	pending int
}

// NewNetwork builds a simulated network over g. The factory is called
// once per node, in ID order, to create the process; seed drives every
// scheduling decision, making runs fully reproducible.
func NewNetwork(g *graph.Graph, factory func(id NodeID, neighbors []NodeID) Process, seed int64) *Network {
	n := g.N()
	net := &Network{
		g:          g,
		procs:      make([]Process, n),
		ctxs:       make([]Context, n),
		linkOff:    make([]int, n),
		stepped:    make([]uint32, n),
		fps:        make([]uint64, n),
		versions:   make([]uint64, n),
		versioners: make([]StateVersioner, n),
		dirtyMark:  make([]bool, n),
		rng:        rand.New(rand.NewSource(seed)),
		metrics:    newMetrics(),
	}
	net.links = make([]link, 0, 2*g.M())
	for u := 0; u < n; u++ {
		net.linkOff[u] = len(net.links)
		for _, v := range g.Neighbors(u) {
			net.links = append(net.links, link{to: v, at: posIn(g, v, u)})
		}
	}
	net.nePos = make([]int, len(net.links))
	for i := range net.nePos {
		net.nePos[i] = -1
	}
	send := net.send // one method value shared by every context
	for id := 0; id < n; id++ {
		ctx := &net.ctxs[id]
		*ctx = Context{id: id, nbrs: g.Neighbors(id), send: send, at: -1}
		net.procs[id] = factory(id, ctx.nbrs)
		if vs, ok := net.procs[id].(StateVersioner); ok {
			net.versioners[id] = vs
		}
	}
	net.rehashAllNodes()
	net.resetRoundSnapshot()
	return net
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Process returns the process at node id for inspection between steps.
func (n *Network) Process(id NodeID) Process { return n.procs[id] }

// Context returns node id's context. It lets tests drive a process's
// handlers directly while still sending over the network's real links.
func (n *Network) Context(id NodeID) *Context { return &n.ctxs[id] }

// Metrics returns the accumulated execution metrics. The send path
// counts messages per kind in the network's own table, so SentByKind is
// refreshed from it at each call: read it through a fresh Metrics call
// after the steps it should cover, not through a pointer kept from
// before them.
func (n *Network) Metrics() *Metrics {
	for _, k := range n.kinds {
		n.metrics.SentByKind[k.kind] = k.sent
	}
	return n.metrics
}

// Rand returns the scheduling RNG (shared with schedulers for
// determinism).
func (n *Network) Rand() *rand.Rand { return n.rng }

// Pending returns the number of undelivered messages.
func (n *Network) Pending() int { return n.pendingTotal }

// RandomPendingLink returns a link index chosen with probability
// proportional to its queue length — i.e. a uniformly random undelivered
// message. Panics if nothing is pending.
func (n *Network) RandomPendingLink() int {
	if n.pendingTotal <= 0 {
		panic("sim: RandomPendingLink with no pending messages")
	}
	if !n.idxLive {
		// First draw on this network: index the current queues; sends
		// and deliveries keep the index current from here on.
		n.pendingIdx = newFenwick(len(n.links))
		for p, li := range n.nonEmpty {
			n.pendingIdx.Add(p, n.links[li].len())
		}
		n.idxLive = true
	}
	// Fenwick selection over positions in nonEmpty order: identical to
	// the old linear cumulative-length walk (first position whose prefix
	// sum exceeds idx), in O(log links) instead of O(nonEmpty). The
	// committed async-scheduler matrix cells guard the byte-identity of
	// this mapping.
	idx := n.rng.Intn(n.pendingTotal)
	return n.nonEmpty[n.pendingIdx.Select(idx)]
}

// PendingKind returns the number of undelivered messages of the given
// kind, maintained incrementally on send and consume.
func (n *Network) PendingKind(kind string) int {
	for _, k := range n.kinds {
		if k.kind == kind {
			return k.pending
		}
	}
	return 0
}

// kindOf returns the row of kind in the counter table, adding it on the
// kind's first send. Kinds are few and their names are constants, so the
// scan is a handful of pointer-equal string compares.
func (n *Network) kindOf(kind string) int {
	for i := range n.kinds {
		if n.kinds[i].kind == kind {
			return i
		}
	}
	n.kinds = append(n.kinds, kindCount{kind: kind})
	return len(n.kinds) - 1
}

// posIn returns u's position in v's sorted neighbor list, for an edge
// {u, v} of g.
func posIn(g *graph.Graph, v, u NodeID) int {
	i, _ := slices.BinarySearch(g.Neighbors(v), u)
	return i
}

// send is every context's transport: it queues m on the link from node
// from to its neighbor at position i (Context.SendAt checked i).
func (n *Network) send(from NodeID, i int, m Message) {
	li := n.linkOff[from] + i
	l := &n.links[li]
	wasEmpty := l.empty()
	n.nextSeq++
	kind := m.Kind()
	k := n.kindOf(kind)
	l.push(envelope{msg: m, seq: n.nextSeq, kind: k})
	n.pendingTotal++
	kc := &n.kinds[k]
	kc.sent++
	kc.pending++
	if wasEmpty {
		n.nePos[li] = len(n.nonEmpty)
		n.nonEmpty = append(n.nonEmpty, li)
	}
	if n.idxLive {
		n.pendingIdx.Add(n.nePos[li], 1)
	}
	if n.sendHook != nil {
		n.sendHook(li)
	}
	if ql := l.len(); ql > n.metrics.MaxQueueLen {
		n.metrics.MaxQueueLen = ql
	}
	if s := m.Size(); s > n.metrics.MaxMsgSize {
		n.metrics.MaxMsgSize = s
		n.metrics.MaxMsgSizeKind = kind
	}
}

// removeNonEmpty drops link li from the non-empty index. The link's
// prefix-sum mass is already zero (Deliver decrements before removal);
// only the swapped-in link's mass moves.
func (n *Network) removeNonEmpty(li int) {
	pos := n.nePos[li]
	last := len(n.nonEmpty) - 1
	if pos != last {
		moved := n.nonEmpty[last]
		if n.idxLive {
			m := n.links[moved].len()
			n.pendingIdx.Add(last, -m)
			n.pendingIdx.Add(pos, m)
		}
		n.nonEmpty[pos] = moved
		n.nePos[moved] = pos
	}
	n.nonEmpty = n.nonEmpty[:last]
	n.nePos[li] = -1
}

// markStepped records an atomic step at node id for round accounting.
func (n *Network) markStepped(id NodeID) {
	if n.stepped[id] != n.epoch {
		n.stepped[id] = n.epoch
		n.needSteps--
	}
}

// touch flags node id's cached fingerprint as possibly stale.
func (n *Network) touch(id NodeID) {
	if !n.dirtyMark[id] {
		n.dirtyMark[id] = true
		n.dirty = append(n.dirty, id)
	}
}

// Deliver pops the head of link li and delivers it: one atomic receive
// step at the destination. With a configured drop rate the message may
// be lost instead (it still counts as an event, not as a delivery).
//
// A dropped message settles only the old-message obligation of the
// round: the recipient took no step, so it is NOT marked as stepped —
// under lossy links every node still owes ≥1 step per round (§2's round
// definition; this was the lossy round-undercount bug).
func (n *Network) Deliver(li int) {
	l := &n.links[li]
	if l.empty() {
		panic("sim: Deliver on empty link")
	}
	env := l.pop()
	n.pendingTotal--
	n.kinds[env.kind].pending--
	if n.idxLive {
		n.pendingIdx.Add(n.nePos[li], -1)
	}
	if l.empty() {
		n.removeNonEmpty(li)
	}
	if env.seq <= n.snapshotSeq {
		n.pendingOld--
	}
	n.metrics.Events++
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.dropped++
		return
	}
	n.metrics.Deliveries++
	n.markStepped(l.to)
	n.touch(l.to)
	n.ctxs[l.to].Deliver(n.procs[l.to], l.at, env.msg)
}

// SetDropRate configures lossy links: every delivery is independently
// lost with probability rate. Zero (the default) is the paper's
// reliable-link model.
func (n *Network) SetDropRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic("sim: drop rate must be in [0,1)")
	}
	n.dropRate = rate
}

// Dropped returns the number of messages lost to SetDropRate.
func (n *Network) Dropped() int64 { return n.dropped }

// Tick runs one loop iteration at node id: one atomic step.
func (n *Network) Tick(id NodeID) {
	n.metrics.Ticks++
	n.metrics.Events++
	n.markStepped(id)
	n.touch(id)
	n.procs[id].Tick(&n.ctxs[id])
}

// NonEmptyLinks returns the indices of links with pending messages. The
// slice is owned by the network; schedulers must not retain it across
// steps.
func (n *Network) NonEmptyLinks() []int { return n.nonEmpty }

// LinkLen returns the queue length of link li.
func (n *Network) LinkLen(li int) int { return n.links[li].len() }

func (n *Network) resetRoundSnapshot() {
	n.snapshotSeq = n.nextSeq
	n.pendingOld = n.pendingTotal
	n.epoch++
	n.needSteps = n.g.N()
}

// roundComplete reports whether the asynchronous round condition holds:
// every node stepped and all old messages were delivered.
func (n *Network) roundComplete() bool {
	return n.needSteps == 0 && n.pendingOld == 0
}

// nodeFingerprint hashes one process's state.
func (n *Network) nodeFingerprint(id NodeID) uint64 {
	n.metrics.FingerprintRecomputes++
	if fp, ok := n.procs[id].(Fingerprinter); ok {
		return fp.Fingerprint()
	}
	return 0
}

// mixNode folds one node's fingerprint into the combined hash with a
// position-dependent bijective finalizer (splitmix64), making the
// combine commutative — combined is the XOR over nodes of
// mixNode(id, fps[id]) — and therefore patchable in O(1) per changed
// node: combined ^= mix(id, old) ^ mix(id, new). The mix itself lives
// in internal/detect so every backend (including netrun's control
// channel, which combines from published per-node hashes) produces
// comparable certificate fingerprints.
func mixNode(id NodeID, f uint64) uint64 { return detect.MixNode(id, f) }

// rehashAllNodes recomputes every cached fingerprint and the combined
// hash from scratch.
func (n *Network) rehashAllNodes() {
	var combined uint64
	for id := range n.procs {
		f := n.nodeFingerprint(id)
		n.fps[id] = f
		if vs := n.versioners[id]; vs != nil {
			n.versions[id] = vs.StateVersion()
		}
		combined ^= mixNode(id, f)
	}
	n.combined = combined
	for _, id := range n.dirty {
		n.dirtyMark[id] = false
	}
	n.dirty = n.dirty[:0]
}

// InvalidateFingerprints discards the incremental fingerprint cache.
// Call it after mutating process state directly (SetState, Corrupt,
// preloads) outside Tick/Receive when the process does not report state
// versions; Network.Run invalidates on entry, so harness-style
// "mutate, then Run" flows need nothing.
func (n *Network) InvalidateFingerprints() {
	n.rehashAllNodes()
}

// Fingerprint combines all process states for quiescence detection
// (processes that do not implement Fingerprinter contribute a
// constant). Only nodes touched since the last call are re-hashed, and
// of those only the ones whose StateVersion moved; the result equals
// the combine of every node's fingerprint computed from scratch.
func (n *Network) Fingerprint() uint64 {
	for _, id := range n.dirty {
		n.dirtyMark[id] = false
		if vs := n.versioners[id]; vs != nil {
			v := vs.StateVersion()
			if v == n.versions[id] {
				continue // state version unmoved: cached hash is current
			}
			n.versions[id] = v
		}
		f := n.nodeFingerprint(id)
		if f != n.fps[id] {
			n.combined ^= mixNode(id, n.fps[id]) ^ mixNode(id, f)
			n.fps[id] = f
		}
	}
	n.dirty = n.dirty[:0]
	return n.combined
}

// LastFingerprint returns the combined fingerprint as of the most
// recent Fingerprint computation, without touching the cache or the
// recompute counters (Run's quiescence loop keeps it current, so after
// a converged Run it is exactly the quiesced fingerprint). Certificate
// construction uses it instead of Fingerprint so the deterministic
// FingerprintRecomputes figure of merit is unchanged by detection.
func (n *Network) LastFingerprint() uint64 { return n.combined }

// StateVersions returns the per-node quiescence-epoch vector: each
// node's StateVersion where the process reports one, its cached state
// hash otherwise. Pure reads — deterministic for a seeded run.
func (n *Network) StateVersions() []uint64 {
	out := make([]uint64, len(n.procs))
	for id := range n.procs {
		if vs := n.versioners[id]; vs != nil {
			out[id] = vs.StateVersion()
		} else {
			out[id] = n.fps[id]
		}
	}
	return out
}

// MaxRetryPeriod returns the maximum CurrentRetryPeriod over processes
// implementing RetryAware, or def when none do. Pure reads — safe from
// run-loop observers and deterministic for a seeded run.
func (n *Network) MaxRetryPeriod(def int) int {
	max, found := 0, false
	for _, p := range n.procs {
		if ra, ok := p.(RetryAware); ok {
			found = true
			if r := ra.CurrentRetryPeriod(); r > max {
				max = r
			}
		}
	}
	if !found {
		return def
	}
	return max
}

// MaxStateBitsOf returns the maximum StateBits over the processes, or 0
// if unsupported — shared by every backend's result collection.
func MaxStateBitsOf[P Process](procs []P) int {
	max := 0
	for _, p := range procs {
		if s, ok := any(p).(StateSizer); ok {
			if b := s.StateBits(); b > max {
				max = b
			}
		}
	}
	return max
}

// Scheduler executes one round of the network per RunRound call.
type Scheduler interface {
	// RunRound advances the network by one round and returns the number
	// of atomic events executed. Returning 0 means no progress is
	// possible (should not happen: ticks are always enabled).
	RunRound(n *Network) int
}

// RunConfig controls Network.Run.
type RunConfig struct {
	Scheduler Scheduler
	// MaxRounds bounds the execution; Run returns with Converged=false
	// when exceeded.
	MaxRounds int
	// QuiesceRounds: stop after this many consecutive rounds without a
	// fingerprint change (and no pending messages of the kinds listed in
	// ActiveKinds, if any). Zero disables quiescence detection.
	QuiesceRounds int
	// QuiesceWindow, if non-nil, resolves the stability window CURRENTLY
	// required — the adaptive suppression backoff makes the retry
	// schedule time-varying, so the window must cover the deepest
	// backoff tier in effect, which only a live read can know.
	// QuiesceRounds then acts as the static floor that gates the O(n)
	// evaluation: the function is consulted only once the floor is met.
	// Nil keeps the fixed-window behavior byte-identical.
	QuiesceWindow func() int
	// ActiveKinds: message kinds that must drain before quiescence is
	// declared (e.g. reduction messages still in flight).
	ActiveKinds []string
	// OnRound, if non-nil, is called after every round with the round
	// index; returning false stops the run (Converged=false).
	OnRound func(round int) bool
}

// RunResult summarizes a Run.
type RunResult struct {
	Converged       bool
	Rounds          int
	LastChangeRound int
}

// quiesceTracker is the per-round quiescence accounting shared by the
// two execution cores: it observes the combined fingerprint after each
// executed round, stamps LastChangeRound/EventsAtLastChange on change,
// and reports convergence once the fingerprint has held for the window
// with every active message kind drained. The compat core feeds it
// consecutive rounds; the event core also consults it when
// fast-forwarding over empty buckets (stability there is implied: no
// events means no possible change).
type quiesceTracker struct {
	net      *Network
	window   int
	windowFn func() int // non-nil: adaptive requirement on top of the floor
	kinds    []string
	lastFP   uint64
	stable   int
}

func newQuiesceTracker(n *Network, window int, windowFn func() int, kinds []string) *quiesceTracker {
	return &quiesceTracker{net: n, window: window, windowFn: windowFn,
		kinds: kinds, lastFP: n.combined}
}

// windowNow resolves the stability window currently required: the
// static floor, raised to the adaptive requirement when a window
// function is installed. During a stable stretch backoff tiers only
// deepen (a reset implies a version bump, hence a fingerprint change
// that already restarted the count), so the value read at evaluation
// time bounds the retry spacing over the whole stretch.
func (q *quiesceTracker) windowNow() int {
	w := q.window
	if q.windowFn != nil {
		if need := q.windowFn(); need > w {
			w = need
		}
	}
	return w
}

// observe records the completed round and returns true when quiescence
// is certain: window consecutive unchanged rounds and active kinds
// drained.
func (q *quiesceTracker) observe(round int) bool {
	fp := q.net.Fingerprint()
	if fp != q.lastFP {
		q.lastFP = fp
		q.stable = 0
		q.net.metrics.LastChangeRound = round
		q.net.metrics.EventsAtLastChange = q.net.metrics.Events
	} else {
		q.stable++
	}
	if q.window <= 0 || q.stable < q.window {
		return false
	}
	if q.windowFn != nil && q.stable < q.windowNow() {
		return false
	}
	return q.drained()
}

// drained reports whether every active message kind has zero pending
// messages.
func (q *quiesceTracker) drained() bool {
	for _, k := range q.kinds {
		if q.net.PendingKind(k) > 0 {
			return false
		}
	}
	return true
}

// Run executes rounds until quiescence or the round bound. This is the
// compatibility core: it steps the legacy per-round schedulers in the
// exact pre-event-core order (RNG consumption, metrics, one Fingerprint
// per round), so its outputs are byte-identical to the committed
// baselines. Network.RunEvents is the frontier-only alternative.
func (n *Network) Run(cfg RunConfig) RunResult {
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewSyncScheduler()
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1 << 20
	}
	// Re-seed the cache: harness flows mutate process state directly
	// (corruption, preloads) between NewNetwork and Run.
	n.rehashAllNodes()
	q := newQuiesceTracker(n, cfg.QuiesceRounds, cfg.QuiesceWindow, cfg.ActiveKinds)
	for r := 0; r < cfg.MaxRounds; r++ {
		cfg.Scheduler.RunRound(n)
		n.metrics.Rounds++
		if q.observe(n.metrics.Rounds) {
			return RunResult{Converged: true, Rounds: n.metrics.Rounds,
				LastChangeRound: n.metrics.LastChangeRound}
		}
		if cfg.OnRound != nil && !cfg.OnRound(r) {
			break
		}
	}
	return RunResult{Converged: false, Rounds: n.metrics.Rounds,
		LastChangeRound: n.metrics.LastChangeRound}
}
