package sim

// Schedulers. All three implement the Scheduler interface and use the
// network's seeded RNG exclusively, so executions are reproducible.

// SyncScheduler executes classical synchronous rounds: every message
// pending at the round start is delivered (in randomized link order,
// FIFO within each link), then every node ticks once (in randomized
// order). Messages sent during the round are delivered the next round.
// Experiment E2 measures rounds under this scheduler, matching the round
// complexity statement of the paper's Lemma 5.
type SyncScheduler struct {
	// Scratch buffers reused across rounds: the delivery snapshot and
	// the tick permutation used to allocate fresh slices every round,
	// which dominated the scheduler's own allocation profile at large n
	// (see BenchmarkSyncRoundAllocs).
	slots []syncSlot
	perm  []int
}

// syncSlot is one entry of the per-round delivery snapshot.
type syncSlot struct{ li, count int }

// NewSyncScheduler returns a SyncScheduler.
func NewSyncScheduler() *SyncScheduler { return &SyncScheduler{} }

// RunRound implements Scheduler.
func (s *SyncScheduler) RunRound(n *Network) int {
	events := 0
	rng := n.Rand()
	// Snapshot pending counts per link; deliver exactly those.
	slots := s.slots[:0]
	for _, li := range n.NonEmptyLinks() {
		slots = append(slots, syncSlot{li, n.LinkLen(li)})
	}
	s.slots = slots
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for _, sl := range slots {
		for c := 0; c < sl.count; c++ {
			n.Deliver(sl.li)
			events++
		}
	}
	// In-place Fisher–Yates with rand.Perm's exact draw sequence
	// (m[i]=m[j]; m[j]=i over Intn(i+1)), so the scratch buffer changes
	// neither the RNG stream nor the tick order of the committed
	// baselines.
	nn := n.Graph().N()
	if cap(s.perm) < nn {
		s.perm = make([]int, nn)
	}
	order := s.perm[:nn]
	for i := 0; i < nn; i++ {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	for _, id := range order {
		n.Tick(id)
		events++
	}
	n.resetRoundSnapshot()
	return events
}

// AsyncScheduler executes a random asynchronous schedule: each atomic
// step is either the delivery of a uniformly chosen undelivered MESSAGE
// or a tick at a uniformly chosen node. Weighting deliveries by queued
// messages (not by link) keeps the system subcritical: when traffic
// piles up, deliveries dominate and queues drain, matching the standard
// model where every in-flight message has the same delivery rate. A
// round ends when every node has taken a step and all messages pending
// at the round start have been delivered (the standard asynchronous
// round). A tick at a random node is as likely as the delivery of any
// given pending message. The zero value is ready to use.
type AsyncScheduler struct{}

// maxStepsPerRound guards the randomized and adversarial schedulers
// against pathological schedules: a round is cut after this many steps.
const maxStepsPerRound = 1 << 20

// NewAsyncScheduler returns an AsyncScheduler.
func NewAsyncScheduler() *AsyncScheduler { return &AsyncScheduler{} }

// RunRound implements Scheduler.
func (s *AsyncScheduler) RunRound(n *Network) int {
	rng := n.Rand()
	nNodes := n.Graph().N()
	events := 0
	for events < maxStepsPerRound {
		pending := n.Pending()
		tickMass := float64(nNodes)
		total := tickMass + float64(pending)
		if rng.Float64()*total < tickMass {
			n.Tick(rng.Intn(nNodes))
		} else {
			n.Deliver(n.RandomPendingLink())
		}
		events++
		if n.roundComplete() {
			break
		}
	}
	n.resetRoundSnapshot()
	return events
}

// AdversarialScheduler starves ticks and favors the most backlogged
// links, delaying gossip refresh as long as the fairness assumption
// allows: all old messages are delivered (always from the currently
// longest queue) before any node ticks, and ticks run in descending ID
// order. Every node still ticks exactly once per round: the "do forever:
// send InfoMsg" loop of the paper is weakly fair, so a schedule that
// permanently starved ticks at a node that keeps receiving messages
// would be illegal — it can freeze the whole network in a stale-view
// orbit that no self-stabilizing protocol can escape. This is the
// harshest legal schedule for the protocol's freshness assumptions and
// is used by ablation E7.
type AdversarialScheduler struct {
	// heap indexes the non-empty links by queue length so each
	// longest-queue selection is O(log links) instead of a full scan
	// (the old per-delivery O(links) walk made a round O(messages ×
	// links)). Ties break toward the lowest link index — a total,
	// deterministic order. Lazily sized to the network's link count.
	heap *linkMaxHeap
}

// NewAdversarialScheduler returns an AdversarialScheduler. The zero
// value is ready to use too.
func NewAdversarialScheduler() *AdversarialScheduler { return &AdversarialScheduler{} }

// RunRound implements Scheduler.
func (s *AdversarialScheduler) RunRound(n *Network) int {
	events := 0
	// Deliver every old message first, always from the longest link.
	// The heap tracks queue lengths across deliveries and the sends they
	// trigger (via the network's send hook); it is rebuilt per round
	// from the non-empty index, which also keeps it correct if the same
	// scheduler is reused across networks.
	if s.heap == nil || len(s.heap.pos) != len(n.links) {
		s.heap = newLinkMaxHeap(len(n.links))
	} else {
		s.heap.Reset()
	}
	for _, li := range n.NonEmptyLinks() {
		s.heap.Update(li, n.LinkLen(li))
	}
	prevHook := n.sendHook
	n.sendHook = func(li int) { s.heap.Update(li, n.LinkLen(li)) }
	for events < maxStepsPerRound && n.pendingOld > 0 {
		best, ok := s.heap.Max()
		if !ok {
			break
		}
		n.Deliver(best)
		s.heap.Update(best, n.LinkLen(best))
		events++
	}
	n.sendHook = prevHook
	// Then tick every node once, largest ID first (deterministic
	// starvation order) — receives alone do not discharge a node's
	// do-forever obligation.
	for id := n.Graph().N() - 1; id >= 0 && events < maxStepsPerRound; id-- {
		n.Tick(id)
		events++
	}
	n.resetRoundSnapshot()
	return events
}
