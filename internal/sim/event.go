package sim

import "container/heap"

// The event core: a discrete-event alternative to the per-round full
// sweep of Network.Run. Virtual time is the round index; pending
// deliveries and node tick timers live in calendar-queue buckets keyed
// by round, and a round's bucket is executed only if it has events.
// Nodes without work park their timers entirely (see EventProcess), so
// per-round cost tracks the active frontier instead of n+m. Round
// semantics are preserved as a derived view: a message sent in round t
// is deliverable in round t+1 (the sync-scheduler contract),
// Metrics.Rounds/LastChangeRound advance in virtual rounds, and the
// quiescence window is measured in virtual rounds — convergence can
// therefore be declared by fast-forwarding over a gap of empty buckets
// without executing the idle rounds.

// NoWork is the EventProcess.NextWork sentinel for "parked": the node
// needs no tick until new input (a delivery or direct state mutation)
// arrives.
const NoWork = -1

// EventProcess is the optional interface that lets the event core park
// idle nodes. A process that does not implement it is ticked in every
// executed round (always correct, no frontier win).
//
// The contract ties tick-denominated protocol schedules to virtual
// rounds: NextWork reports, relative to the process's CURRENT tick
// counter, in how many ticks the next tick with observable work falls
// (1 = the very next tick must run; k>1 = the next k-1 ticks would be
// no-ops; NoWork = no tick needed until new input). SkipTicks advances
// the tick counter by k without doing work — the engine calls it on
// wake so counters stay aligned with virtual time and tick-keyed
// schedules (search retry deadlines, suppression windows) keep their
// round meaning.
type EventProcess interface {
	NextWork() int
	SkipTicks(k int)
}

// EventPolicy names the event core's intra-round ordering. The core has
// one, EventPolicySync, and RunEvents does not read it; the type remains
// only because benchmark/trace.go sets EventConfig.Policy.
type EventPolicy int

// EventPolicySync mirrors SyncScheduler: due deliveries first
// (randomized link order, FIFO within links), then ticks in randomized
// order. It is the only ordering RunEvents has.
const EventPolicySync EventPolicy = 0

// EventConfig controls Network.RunEvents. The fields correspond to
// RunConfig one for one, without the Scheduler: every round is ordered
// as SyncScheduler orders it.
type EventConfig struct {
	// Policy is not read; it remains only for benchmark/trace.go.
	Policy EventPolicy
	// MaxRounds bounds virtual time; RunEvents returns Converged=false
	// when the bound passes without quiescence.
	MaxRounds int
	// QuiesceRounds: declare convergence once this many consecutive
	// virtual rounds pass without a fingerprint change (and the
	// ActiveKinds drained). Zero disables detection.
	QuiesceRounds int
	// QuiesceWindow, if non-nil, resolves the stability window currently
	// required on top of the QuiesceRounds floor (time-varying retry
	// schedules; see RunConfig.QuiesceWindow). During an empty gap no
	// launches fire, so backoff tiers are frozen and the value read at
	// the gap's start stays valid across the fast-forward.
	QuiesceWindow func() int
	ActiveKinds   []string
	// OnRound, if non-nil, is called after every EXECUTED round with the
	// legacy 0-based round index; rounds skipped over as empty are not
	// reported (nothing ran, nothing could change). Returning false
	// stops the run.
	OnRound func(round int) bool
}

// eventBucket holds one virtual round's work: candidate tick events and
// one delivery entry per due message (link index, send order).
type eventBucket struct {
	ticks []NodeID
	dels  []int
}

// intMinHeap is a container/heap min-heap over bucket times.
type intMinHeap []int

func (h intMinHeap) Len() int            { return len(h) }
func (h intMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intMinHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// eventEngine is the per-run state of the event core.
type eventEngine struct {
	net *Network

	procs      []EventProcess // nil where the process cannot park
	nextTickAt []int          // armed tick round per node; 0 = unarmed
	tickSync   []int          // node's current tick-counter value, in rounds

	buckets map[int]*eventBucket
	times   intMinHeap
	free    []*eventBucket // bucket recycling

	now         int
	touched     []NodeID
	touchedMark []bool

	// Scratch for the delivery ordering.
	dueCount []int
	groups   []int
}

func (e *eventEngine) bucket(t int) *eventBucket {
	if b, ok := e.buckets[t]; ok {
		return b
	}
	var b *eventBucket
	if n := len(e.free); n > 0 {
		b = e.free[n-1]
		e.free = e.free[:n-1]
		b.ticks = b.ticks[:0]
		b.dels = b.dels[:0]
	} else {
		b = &eventBucket{}
	}
	e.buckets[t] = b
	heap.Push(&e.times, t)
	return b
}

// arm schedules node v's next tick at round t, keeping the earliest of
// the existing and requested times (later duplicates in old buckets are
// skipped at fire time via the nextTickAt check).
func (e *eventEngine) arm(v NodeID, t int) {
	if cur := e.nextTickAt[v]; cur != 0 && cur <= t {
		return
	}
	e.nextTickAt[v] = t
	b := e.bucket(t)
	b.ticks = append(b.ticks, v)
}

func (e *eventEngine) touch(v NodeID) {
	if !e.touchedMark[v] {
		e.touchedMark[v] = true
		e.touched = append(e.touched, v)
	}
}

// syncClock fast-forwards node v's tick counter to round now-1 (the
// value a legacy node would hold while receiving round now's
// deliveries), so handlers observe a current clock.
func (e *eventEngine) syncClock(v NodeID) {
	if p := e.procs[v]; p != nil {
		if d := (e.now - 1) - e.tickSync[v]; d > 0 {
			p.SkipTicks(d)
			e.tickSync[v] = e.now - 1
		}
	}
}

// deliver executes one due delivery on link li.
func (e *eventEngine) deliver(li int) {
	to := e.net.links[li].to
	e.syncClock(to)
	e.touch(to)
	e.net.Deliver(li)
}

// fireTick validates and executes node id's tick event at round t. A
// stale entry (the node re-armed elsewhere or parked) is skipped; an
// armed node whose work horizon moved is re-armed without ticking, so
// parked-then-retargeted timers never produce futile gossip.
func (e *eventEngine) fireTick(id NodeID, t int) {
	if e.nextTickAt[id] != t {
		return
	}
	e.nextTickAt[id] = 0
	if p := e.procs[id]; p != nil {
		w := p.NextWork()
		if w == NoWork {
			return // parked; the next event at this node re-arms it
		}
		if due := e.tickSync[id] + w; due > t {
			e.arm(id, due)
			return
		}
	}
	e.syncClock(id)
	e.net.Tick(id)
	e.tickSync[id] = t
	e.touch(id)
}

// rearm computes node v's next timer after the events of round now.
func (e *eventEngine) rearm(v NodeID) {
	p := e.procs[v]
	if p == nil {
		e.arm(v, e.now+1)
		return
	}
	w := p.NextWork()
	if w == NoWork {
		return
	}
	due := e.tickSync[v] + w
	if due <= e.now {
		due = e.now + 1
	}
	e.arm(v, due)
}

// runBucket executes round t's events: deliveries first, grouped per
// link in first-appearance order (FIFO within a link), link order
// randomized; then ticks in randomized order.
func (e *eventEngine) runBucket(t int, b *eventBucket) {
	rng := e.net.rng
	groups := e.groups[:0]
	for _, li := range b.dels {
		if e.dueCount[li] == 0 {
			groups = append(groups, li)
		}
		e.dueCount[li]++
	}
	e.groups = groups
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	for _, li := range groups {
		cnt := e.dueCount[li]
		e.dueCount[li] = 0
		for c := 0; c < cnt; c++ {
			e.deliver(li)
		}
	}
	ids := b.ticks
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		e.fireTick(id, t)
	}
}

// RunEvents executes the network on the event core until quiescence or
// the round bound. It is the frontier-only counterpart of Run: rounds
// in which no node has work are never executed, and once the last
// fingerprint change is a full quiescence window in the past with no
// event scheduled in between, convergence is declared at the window's
// end round — the "empty queue + expired timers" certificate basis.
//
// RunEvents assumes reliable links: with a configured drop rate a lost
// gossip message is never re-sent to a parked sender, which breaks the
// stale-view recovery the compat core gets from its always-on gossip
// (the harness rejects that combination up front).
func (n *Network) RunEvents(cfg EventConfig) RunResult {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1 << 20
	}
	nn := n.g.N()
	e := &eventEngine{
		net:         n,
		procs:       make([]EventProcess, nn),
		nextTickAt:  make([]int, nn),
		tickSync:    make([]int, nn),
		buckets:     make(map[int]*eventBucket),
		touchedMark: make([]bool, nn),
		dueCount:    make([]int, len(n.links)),
	}
	for id := 0; id < nn; id++ {
		if p, ok := n.procs[id].(EventProcess); ok {
			e.procs[id] = p
		}
	}
	// Virtual time continues from any earlier Run on this network
	// (metrics.Rounds rounds have executed, so every tick counter and
	// LastChangeRound stamp is already in that frame).
	base := n.metrics.Rounds
	for id := 0; id < nn; id++ {
		e.tickSync[id] = base
		e.arm(id, base+1)
	}
	// Pre-existing pending messages are all deliverable next round.
	for _, li := range n.nonEmpty {
		b := e.bucket(base + 1)
		for c := n.links[li].len(); c > 0; c-- {
			b.dels = append(b.dels, li)
		}
	}
	prevHook := n.sendHook
	n.sendHook = func(li int) {
		b := e.bucket(e.now + 1)
		b.dels = append(b.dels, li)
	}
	defer func() { n.sendHook = prevHook }()

	// Re-seed the cache exactly as Run does: harness flows mutate
	// process state directly between NewNetwork and the run.
	n.rehashAllNodes()
	q := newQuiesceTracker(n, cfg.QuiesceRounds, cfg.QuiesceWindow, cfg.ActiveKinds)
	maxRound := base + cfg.MaxRounds
	for e.times.Len() > 0 {
		t := e.times[0]
		// Fast-forward convergence across a gap of empty rounds: if the
		// quiescence window ends strictly before the next scheduled
		// event, the intervening rounds were eventless — the fingerprint
		// could not have changed and no message was pending.
		if q.window > 0 {
			cand := n.metrics.LastChangeRound + q.windowNow()
			if cand > n.metrics.Rounds && cand < t && cand <= maxRound &&
				n.pendingTotal == 0 && q.drained() {
				n.metrics.Rounds = cand
				return RunResult{Converged: true, Rounds: n.metrics.Rounds,
					LastChangeRound: n.metrics.LastChangeRound}
			}
		}
		if t > maxRound {
			break
		}
		heap.Pop(&e.times)
		b := e.buckets[t]
		delete(e.buckets, t)
		e.now = t
		e.runBucket(t, b)
		e.free = append(e.free, b)
		n.metrics.Rounds = t
		for _, v := range e.touched {
			e.touchedMark[v] = false
			e.rearm(v)
		}
		e.touched = e.touched[:0]
		if q.observe(t) {
			return RunResult{Converged: true, Rounds: t,
				LastChangeRound: n.metrics.LastChangeRound}
		}
		if cfg.OnRound != nil && !cfg.OnRound(t-1) {
			return RunResult{Converged: false, Rounds: n.metrics.Rounds,
				LastChangeRound: n.metrics.LastChangeRound}
		}
	}
	// Queue exhausted: every timer is parked and nothing is in flight —
	// eternal quiescence if the window fits under the round bound.
	if q.window > 0 {
		cand := n.metrics.LastChangeRound + q.windowNow()
		if cand < n.metrics.Rounds {
			cand = n.metrics.Rounds
		}
		if cand <= maxRound && n.pendingTotal == 0 && q.drained() {
			n.metrics.Rounds = cand
			return RunResult{Converged: true, Rounds: cand,
				LastChangeRound: n.metrics.LastChangeRound}
		}
	}
	n.metrics.Rounds = maxRound
	return RunResult{Converged: false, Rounds: n.metrics.Rounds,
		LastChangeRound: n.metrics.LastChangeRound}
}
