package sim

import (
	"math/rand"
	"testing"
	"time"

	"mdst/internal/graph"
)

// minMsg floods the smallest ID seen so far.
type minMsg struct{ val int }

func (m minMsg) Kind() string { return "min" }
func (m minMsg) Size() int    { return 1 }

// minProc is a toy protocol: converge to the global minimum ID.
type minProc struct {
	id  int
	min int
}

func (p *minProc) Init(ctx *Context) {}
func (p *minProc) Tick(ctx *Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, minMsg{p.min})
	}
}
func (p *minProc) Receive(ctx *Context, from NodeID, m Message) {
	if v := m.(minMsg).val; v < p.min {
		p.min = v
	}
}
func (p *minProc) Fingerprint() uint64 { return uint64(p.min) }
func (p *minProc) StateBits() int      { return 64 }

func newMinNetwork(g *graph.Graph, seed int64) *Network {
	return NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &minProc{id: id, min: id}
	}, seed)
}

func checkAllMin(t *testing.T, get func(id int) Process, n int) {
	t.Helper()
	for id := 0; id < n; id++ {
		if p := get(id).(*minProc); p.min != 0 {
			t.Fatalf("node %d: min=%d, want 0", id, p.min)
		}
	}
}

func TestSyncSchedulerConvergesMinFlood(t *testing.T) {
	g := graph.Ring(10)
	net := newMinNetwork(g, 1)
	res := net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 100, QuiesceRounds: 3})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	checkAllMin(t, net.Process, 10)
	// Min-ID flood on a ring of 10 takes about diameter rounds.
	if res.LastChangeRound > 10 {
		t.Fatalf("took %d rounds, expected <= 10", res.LastChangeRound)
	}
}

func TestAsyncSchedulerConvergesMinFlood(t *testing.T) {
	g := graph.Grid(4, 4)
	net := newMinNetwork(g, 2)
	res := net.Run(RunConfig{Scheduler: NewAsyncScheduler(), MaxRounds: 500, QuiesceRounds: 3})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	checkAllMin(t, net.Process, 16)
}

func TestAdversarialSchedulerConvergesMinFlood(t *testing.T) {
	g := graph.Ring(12)
	net := newMinNetwork(g, 3)
	res := net.Run(RunConfig{Scheduler: NewAdversarialScheduler(), MaxRounds: 500, QuiesceRounds: 3})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	checkAllMin(t, net.Process, 12)
}

// The schedulers' zero values are ready to use: each runs exactly like
// its constructor's scheduler.
func TestZeroValueSchedulersMatchConstructors(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, pair := range []struct {
		name            string
		zero, construct Scheduler
	}{
		{"async", &AsyncScheduler{}, NewAsyncScheduler()},
		{"adversarial", &AdversarialScheduler{}, NewAdversarialScheduler()},
	} {
		run := func(s Scheduler) (RunResult, uint64, int64) {
			net := newMinNetwork(g, 2)
			res := net.Run(RunConfig{Scheduler: s, MaxRounds: 500, QuiesceRounds: 3})
			return res, net.Fingerprint(), net.Metrics().Events
		}
		zr, zfp, zev := run(pair.zero)
		cr, cfp, cev := run(pair.construct)
		if zr != cr || zfp != cfp || zev != cev || !zr.Converged {
			t.Fatalf("%s: zero value %+v fp %x events %d, constructor %+v fp %x events %d",
				pair.name, zr, zfp, zev, cr, cfp, cev)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := graph.Grid(3, 5)
	run := func() (uint64, int64) {
		net := newMinNetwork(g, 99)
		net.Run(RunConfig{Scheduler: NewAsyncScheduler(), MaxRounds: 50})
		return net.Fingerprint(), net.Metrics().Events
	}
	fp1, ev1 := run()
	fp2, ev2 := run()
	if fp1 != fp2 || ev1 != ev2 {
		t.Fatalf("same seed diverged: fp %d vs %d, events %d vs %d", fp1, fp2, ev1, ev2)
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := graph.Ring(6)
	net := newMinNetwork(g, 4)
	net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 5})
	m := net.Metrics()
	if m.Rounds != 5 {
		t.Fatalf("rounds=%d, want 5", m.Rounds)
	}
	// Each round each of 6 nodes sends 2 messages.
	if m.SentByKind["min"] != 6*2*5 {
		t.Fatalf("sent=%d, want 60", m.SentByKind["min"])
	}
	if m.Ticks != 30 {
		t.Fatalf("ticks=%d, want 30", m.Ticks)
	}
	if m.MaxMsgSize != 1 || m.MaxMsgSizeKind != "min" {
		t.Fatalf("max size %d kind %q", m.MaxMsgSize, m.MaxMsgSizeKind)
	}
	if net.MaxStateBits() != 64 {
		t.Fatalf("state bits %d", net.MaxStateBits())
	}
}

// fifoMsg carries a sequence number to verify per-link FIFO order.
type fifoMsg struct{ seq int }

func (m fifoMsg) Kind() string { return "fifo" }
func (m fifoMsg) Size() int    { return 1 }

type fifoSender struct{ next int }

func (p *fifoSender) Init(ctx *Context) {}
func (p *fifoSender) Tick(ctx *Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, fifoMsg{p.next})
	}
	p.next++
}
func (p *fifoSender) Receive(ctx *Context, from NodeID, m Message) {}

type fifoReceiver struct {
	last    map[NodeID]int
	violate bool
}

func (p *fifoReceiver) Init(ctx *Context) { p.last = make(map[NodeID]int) }
func (p *fifoReceiver) Tick(ctx *Context) {}
func (p *fifoReceiver) Receive(ctx *Context, from NodeID, m Message) {
	seq := m.(fifoMsg).seq
	if prev, ok := p.last[from]; ok && seq != prev+1 {
		p.violate = true
	}
	p.last[from] = seq
}

func TestFIFOOrderPerLink(t *testing.T) {
	g := graph.Star(5) // center 0 receives from 4 senders
	net := NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		if id == 0 {
			return &fifoReceiver{}
		}
		return &fifoSender{}
	}, 7)
	net.Run(RunConfig{Scheduler: NewAsyncScheduler(), MaxRounds: 200})
	if net.Process(0).(*fifoReceiver).violate {
		t.Fatal("FIFO violated on some link")
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	// The link lookup is a binary search of the sender's sorted neighbor
	// list, so the targets miss below, between and above the neighbors,
	// and also name the sender itself and IDs outside the graph.
	// Neighbors: 0:{1,2} 1:{0} 2:{0,4} 3:{4} 4:{2,3,5} 5:{4}.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 4}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	net := newMinNetwork(g, 1)
	for _, c := range []struct{ from, to NodeID }{
		{0, 3},  // above the largest neighbor
		{2, 1},  // between two neighbors, next to the smaller
		{2, 3},  // between two neighbors, next to the larger
		{2, 5},  // above the largest neighbor
		{4, 0},  // below the smallest neighbor
		{2, 2},  // the sender itself
		{1, 6},  // beyond the last node
		{1, -1}, // negative ID
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for send %d -> %d (neighbors %v)",
						c.from, c.to, g.Neighbors(c.from))
				}
			}()
			net.ctxs[c.from].Send(c.to, minMsg{0})
		}()
	}
	if net.Pending() != 0 {
		t.Fatalf("rejected sends left %d messages queued", net.Pending())
	}
}

func TestRunStopsAtMaxRounds(t *testing.T) {
	// A protocol that changes state forever never quiesces.
	g := graph.Path(2)
	net := NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &fifoSender{}
	}, 1)
	res := net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 17})
	if res.Converged {
		t.Fatal("converged without quiescence detection enabled")
	}
	if net.Metrics().Rounds != 17 {
		t.Fatalf("rounds=%d, want 17", net.Metrics().Rounds)
	}
}

func TestOnRoundEarlyStop(t *testing.T) {
	g := graph.Ring(5)
	net := newMinNetwork(g, 1)
	rounds := 0
	net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 100,
		OnRound: func(r int) bool { rounds++; return r < 3 }})
	if rounds != 4 {
		t.Fatalf("OnRound called %d times, want 4", rounds)
	}
}

func TestPendingKind(t *testing.T) {
	g := graph.Path(2)
	net := newMinNetwork(g, 1)
	net.Tick(0) // node 0 sends one minMsg to node 1
	if got := net.PendingKind("min"); got != 1 {
		t.Fatalf("pending=%d, want 1", got)
	}
	if got := net.PendingKind("other"); got != 0 {
		t.Fatalf("pending other=%d, want 0", got)
	}
	if net.Pending() != 1 {
		t.Fatal("total pending wrong")
	}
}

func TestQuiesceWaitsForActiveKinds(t *testing.T) {
	// minProc state stabilizes quickly, but "min" messages keep flowing;
	// with ActiveKinds{"min"} quiescence must never be declared.
	g := graph.Ring(4)
	net := newMinNetwork(g, 5)
	res := net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 30,
		QuiesceRounds: 2, ActiveKinds: []string{"min"}})
	if res.Converged {
		t.Fatal("quiesced despite perpetual min traffic")
	}
}

func TestLiveNetworkMinFlood(t *testing.T) {
	g := graph.Grid(4, 4)
	ln := NewLiveNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &minProc{id: id, min: id}
	}, LiveConfig{TickInterval: 100 * time.Microsecond})
	ln.RunFor(300 * time.Millisecond)
	checkAllMin(t, ln.Process, 16)
	if ln.ProbeSample().Fingerprint == 0 {
		t.Fatal("fingerprint should combine node states")
	}
}

func TestLiveNetworkStopIdempotentInspection(t *testing.T) {
	g := graph.Ring(4)
	ln := NewLiveNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &minProc{id: id, min: id}
	}, LiveConfig{})
	ln.Start()
	time.Sleep(50 * time.Millisecond)
	ln.Stop()
	// After Stop, inspection is safe.
	_ = ln.Process(2).(*minProc).min
}

func TestDeliverEmptyLinkPanics(t *testing.T) {
	g := graph.Path(2)
	net := newMinNetwork(g, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty-link delivery")
		}
	}()
	net.Deliver(0)
}

// TestLinkEnds checks the link lookup on every directed edge of a
// random graph: a send from u to v must enqueue on the one link whose
// LinkEnds is (u, v).
func TestLinkEnds(t *testing.T) {
	g := graph.RandomGnp(24, 0.3, rand.New(rand.NewSource(5)))
	net := newMinNetwork(g, 1)
	if len(net.links) != 2*g.M() {
		t.Fatalf("%d links for %d edges", len(net.links), g.M())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			net.Context(u).Send(v, minMsg{u})
			if ne := net.NonEmptyLinks(); len(ne) != 1 || net.LinkLen(ne[0]) != 1 {
				t.Fatalf("send %d -> %d: non-empty links %v", u, v, ne)
			}
			li := net.NonEmptyLinks()[0]
			if from, to := net.LinkEnds(li); from != u || to != v {
				t.Fatalf("send %d -> %d enqueued on link %d = %d->%d", u, v, li, from, to)
			}
			net.Deliver(li)
		}
	}
}

func TestLossyLinksDropMessages(t *testing.T) {
	g := graph.Ring(8)
	net := newMinNetwork(g, 11)
	net.SetDropRate(0.5)
	net.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 60})
	if net.Dropped() == 0 {
		t.Fatal("no messages dropped at 50% loss")
	}
	// Min flood is idempotent and periodic: it converges despite loss.
	checkAllMin(t, net.Process, 8)
}

func TestDropRateValidation(t *testing.T) {
	g := graph.Path(2)
	net := newMinNetwork(g, 1)
	net.SetDropRate(0) // legal no-op
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v accepted", bad)
				}
			}()
			net.SetDropRate(bad)
		}()
	}
}
