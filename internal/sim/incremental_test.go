package sim

import (
	"math/rand"
	"testing"

	"mdst/internal/detect"
	"mdst/internal/graph"
)

// stepProc counts its own atomic steps (ticks + receives) and gossips
// like minProc, so rounds carry real traffic. It deliberately does NOT
// implement StateVersioner: the counters below are the test's oracle for
// the round definition, and the proc exercises the rehash-on-touch path.
type stepProc struct {
	id    int
	min   int
	steps int
}

func (p *stepProc) Init(ctx *Context) {}
func (p *stepProc) Tick(ctx *Context) {
	p.steps++
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, minMsg{p.min})
	}
}
func (p *stepProc) Receive(ctx *Context, from NodeID, m Message) {
	p.steps++
	if v := m.(minMsg).val; v < p.min {
		p.min = v
	}
}
func (p *stepProc) Fingerprint() uint64 { return uint64(p.min) }

// Regression for the lossy-link round-accounting bug: a dropped delivery
// used to mark the recipient as having stepped, so under loss a node
// could "complete" a round with zero atomic steps — violating §2's round
// definition (every node takes at least one step per round) and
// undercounting rounds in the E9/lossy cells. A drop must settle only
// the old-message obligation.
func TestEveryNodeStepsEachRoundUnderLoss(t *testing.T) {
	g := graph.RandomGnp(12, 0.4, rand.New(rand.NewSource(3)))
	net := NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &stepProc{id: id, min: id}
	}, 17)
	net.SetDropRate(0.5)
	sched := NewAsyncScheduler()
	for round := 0; round < 40; round++ {
		for id := 0; id < g.N(); id++ {
			net.Process(id).(*stepProc).steps = 0
		}
		sched.RunRound(net)
		for id := 0; id < g.N(); id++ {
			if s := net.Process(id).(*stepProc).steps; s < 1 {
				t.Fatalf("round %d: node %d completed the round with %d steps (DropRate=0.5)",
					round, id, s)
			}
		}
		if net.Dropped() == 0 && round > 10 {
			t.Fatal("no drops at 50% loss: the regression is not being exercised")
		}
	}
}

// TestDropSettlesOldMessageObligation pins the half of the drop
// semantics that must keep working: a lost old message still lets the
// round's delivery obligation complete (the round cannot wait forever
// on a message that no longer exists).
func TestDropSettlesOldMessageObligation(t *testing.T) {
	g := graph.Path(2)
	net := NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &stepProc{id: id, min: id}
	}, 5)
	net.SetDropRate(0.9999) // force drops deterministically enough
	net.Tick(0)             // sends one message 0->1
	net.resetRoundSnapshot()
	if net.pendingOld != 1 {
		t.Fatalf("pendingOld=%d, want 1", net.pendingOld)
	}
	net.Deliver(0)
	if net.pendingOld != 0 {
		t.Fatalf("pendingOld=%d after consuming the only old message", net.pendingOld)
	}
}

// Oracle for the incremental fingerprint cache: after every scheduler
// round the cached combine must equal detect.Combine over every node's
// fingerprint computed from scratch. Randomized drops exercise the drop
// path of the accounting.
func TestIncrementalFingerprintMatchesFullRehash(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		g := graph.RandomGnp(20, 0.3, rand.New(rand.NewSource(11)))
		net := NewNetwork(g, func(id NodeID, _ []NodeID) Process {
			return &stepProc{id: id, min: id}
		}, 23)
		if drop > 0 {
			net.SetDropRate(drop)
		}
		sched := NewAsyncScheduler()
		fps := make([]uint64, g.N())
		for round := 0; round < 60; round++ {
			sched.RunRound(net)
			for id := range fps {
				fps[id] = net.Process(id).(*stepProc).Fingerprint()
			}
			if got, want := net.Fingerprint(), detect.Combine(fps); got != want {
				t.Fatalf("drop=%v round %d: incremental fingerprint %x != from-scratch combine %x",
					drop, round, got, want)
			}
		}
	}
}

// The cost a full rehash would pay, which BENCH_scale.json reports as
// fullRehashRecomputes: a process without StateVersioner under the sync
// scheduler steps every round, so every Fingerprint call re-hashes all
// n nodes — once at NewNetwork, once on entry to Run and once per
// round.
func TestUnversionedSyncRunHashesEveryNodeEveryCall(t *testing.T) {
	g := graph.Ring(9)
	net := newMinNetwork(g, 3)
	res := net.Run(RunConfig{Scheduler: NewSyncScheduler(), QuiesceRounds: 5})
	if !res.Converged {
		t.Fatal("min flood did not converge")
	}
	if got, want := net.Metrics().FingerprintRecomputes, int64(g.N()*(res.Rounds+2)); got != want {
		t.Fatalf("FingerprintRecomputes = %d after %d rounds, want n × (rounds + 2) = %d", got, res.Rounds, want)
	}
}

// TestInvalidateFingerprintsAfterDirectMutation pins the documented
// contract for external state mutation outside Tick/Receive.
func TestInvalidateFingerprintsAfterDirectMutation(t *testing.T) {
	g := graph.Ring(6)
	net := newMinNetwork(g, 9)
	before := net.Fingerprint()
	net.Process(3).(*minProc).min = -7 // direct mutation, invisible to the cache
	net.InvalidateFingerprints()
	if net.Fingerprint() == before {
		t.Fatal("fingerprint unchanged after invalidation of a mutated node")
	}
}

// TestPendingKindCountsStayConsistent cross-checks the per-kind counter
// table and the on-demand prefix-sum index against direct link scans
// through sends, deliveries and drops. Sync and async rounds alternate on
// one lossy network, so the index is built mid-run from whatever queues
// the sync rounds left, then maintained through later sync rounds.
func TestPendingKindCountsStayConsistent(t *testing.T) {
	g := graph.RandomGnp(10, 0.5, rand.New(rand.NewSource(2)))
	net := newMinNetwork(g, 31)
	net.SetDropRate(0.4)
	syncSched, asyncSched := NewSyncScheduler(), NewAsyncScheduler()
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			syncSched.RunRound(net)
		} else {
			asyncSched.RunRound(net)
		}
		scan := 0
		for _, li := range net.NonEmptyLinks() {
			scan += net.LinkLen(li)
		}
		if got := net.PendingKind("min"); got != scan || got != net.Pending() {
			t.Fatalf("round %d: PendingKind=%d, scan=%d, Pending=%d", round, got, scan, net.Pending())
		}
		if net.PendingKind("nope") != 0 {
			t.Fatal("unknown kind has pending messages")
		}
		m := net.Metrics()
		if sent, settled := m.SentByKind["min"], m.Deliveries+net.Dropped()+int64(scan); sent != settled {
			t.Fatalf("round %d: SentByKind[min]=%d, deliveries+drops+pending=%d", round, sent, settled)
		}
		if net.idxLive != (round > 0) {
			t.Fatalf("round %d: prefix-sum index live=%v before/after the first async round", round, net.idxLive)
		}
		if !net.idxLive {
			continue
		}
		// Every selection must match the naive cumulative walk.
		k := 0
		for p, li := range net.NonEmptyLinks() {
			for c := 0; c < net.LinkLen(li); c, k = c+1, k+1 {
				if got := net.pendingIdx.Select(k); got != p {
					t.Fatalf("round %d: Select(%d)=%d, cumulative walk gives position %d", round, k, got, p)
				}
			}
		}
	}
}
