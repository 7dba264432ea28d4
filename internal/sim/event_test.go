package sim

import (
	"math/rand"
	"testing"

	"mdst/internal/graph"
)

// eventMinProc is the min-flood toy with parking: it implements
// EventProcess, so the event core can skip it once its minimum stopped
// moving.
type eventMinProc struct {
	minProc
	rest   int
	rested bool
}

func (p *eventMinProc) Tick(ctx *Context) {
	p.minProc.Tick(ctx)
	p.rest = p.min
	p.rested = true
}

func (p *eventMinProc) NextWork() int {
	if !p.rested || p.min != p.rest {
		return 1
	}
	return NoWork
}

func (p *eventMinProc) SkipTicks(int) {}

func newEventMinNetwork(g *graph.Graph, seed int64) *Network {
	return NewNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &eventMinProc{minProc: minProc{id: id, min: id}}
	}, seed)
}

func TestRunEventsConvergesMinFlood(t *testing.T) {
	for _, policy := range []EventPolicy{EventPolicySync, EventPolicyAsync, EventPolicyAdversarial} {
		g := graph.Ring(10)
		net := newMinNetwork(g, 1) // no EventProcess: ticked every round
		res := net.RunEvents(EventConfig{Policy: policy, MaxRounds: 200, QuiesceRounds: 3})
		if !res.Converged {
			t.Fatalf("policy %d did not converge", policy)
		}
		checkAllMin(t, net.Process, 10)
		if res.LastChangeRound > 10 {
			t.Fatalf("policy %d took %d rounds to last change", policy, res.LastChangeRound)
		}
	}
}

// Derived round semantics: convergence is declared exactly one
// quiescence window after the last fingerprint change, whether or not
// the intervening rounds were executed.
func TestRunEventsDerivedRoundClock(t *testing.T) {
	g := graph.Ring(16)
	net := newEventMinNetwork(g, 2)
	const window = 50
	res := net.RunEvents(EventConfig{Policy: EventPolicySync, MaxRounds: 1000, QuiesceRounds: window})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for id := 0; id < 16; id++ {
		if p := net.Process(id).(*eventMinProc); p.min != 0 {
			t.Fatalf("node %d: min=%d, want 0", id, p.min)
		}
	}
	if res.Rounds != res.LastChangeRound+window {
		t.Fatalf("rounds %d != lastChange %d + window %d",
			res.Rounds, res.LastChangeRound, window)
	}
	// The frontier win: an always-on sweep executes 16 ticks in each of
	// the ~window tail rounds; the parked network must not.
	tail := net.Metrics().Events - net.Metrics().EventsAtLastChange
	if tail > int64(4*g.N()) {
		t.Fatalf("tail events %d: nodes did not park", tail)
	}
}

// pulseProc exercises timer scheduling with no messages at all: work
// fires every period ticks, and the clock must be fast-forwarded over
// the parked rounds so pulses land on exact period multiples.
type pulseProc struct {
	tick, period int
	pulses       []int
}

func (p *pulseProc) Tick(*Context) {
	p.tick++
	if p.tick%p.period == 0 {
		p.pulses = append(p.pulses, p.tick)
	}
}
func (p *pulseProc) Receive(*Context, NodeID, Message) {}
func (p *pulseProc) NextWork() int                     { return p.period - p.tick%p.period }
func (p *pulseProc) SkipTicks(k int)                   { p.tick += k }

func TestRunEventsGapFastForward(t *testing.T) {
	g := graph.Ring(4)
	net := NewNetwork(g, func(NodeID, []NodeID) Process {
		return &pulseProc{period: 5}
	}, 3)
	res := net.RunEvents(EventConfig{Policy: EventPolicySync, MaxRounds: 1000, QuiesceRounds: 7})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// The state never changes, so quiescence completes at round 7 —
	// strictly before the second pulse at round 10, which must therefore
	// never execute.
	if res.Rounds != 7 || res.LastChangeRound != 0 {
		t.Fatalf("rounds=%d lastChange=%d, want 7/0", res.Rounds, res.LastChangeRound)
	}
	for id := 0; id < 4; id++ {
		p := net.Process(id).(*pulseProc)
		if len(p.pulses) != 1 || p.pulses[0] != 5 {
			t.Fatalf("node %d pulses = %v, want [5]", id, p.pulses)
		}
	}
}

func TestRunEventsDeterministicReplay(t *testing.T) {
	g := graph.Grid(3, 5)
	run := func() (uint64, int64, int) {
		net := newEventMinNetwork(g, 99)
		res := net.RunEvents(EventConfig{Policy: EventPolicyAsync, MaxRounds: 500, QuiesceRounds: 10})
		return net.Fingerprint(), net.Metrics().Events, res.Rounds
	}
	fp1, ev1, r1 := run()
	fp2, ev2, r2 := run()
	if fp1 != fp2 || ev1 != ev2 || r1 != r2 {
		t.Fatalf("same seed diverged: fp %d/%d events %d/%d rounds %d/%d",
			fp1, fp2, ev1, ev2, r1, r2)
	}
}

// The Fenwick index behind RandomPendingLink must agree with a naive
// prefix-sum walk for every Add/Select interleaving.
func TestFenwickMatchesNaivePrefixSums(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const cap = 37
	f := newFenwick(cap)
	naive := make([]int, cap)
	total := 0
	for step := 0; step < 5000; step++ {
		if total == 0 || rng.Intn(3) > 0 {
			p := rng.Intn(cap)
			d := 1 + rng.Intn(4)
			if rng.Intn(4) == 0 && naive[p] > 0 {
				if d > naive[p] {
					d = naive[p]
				}
				d = -d
			}
			f.Add(p, d)
			naive[p] += d
			total += d
			continue
		}
		k := rng.Intn(total)
		want, acc := 0, 0
		for p, v := range naive {
			acc += v
			if acc > k {
				want = p
				break
			}
		}
		if got := f.Select(k); got != want {
			t.Fatalf("step %d: Select(%d) = %d, want %d", step, k, got, want)
		}
	}
}

// The indexed max-heap must agree with a naive longest-queue scan
// (lowest index on ties) under arbitrary re-keying.
func TestLinkMaxHeapMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const links = 23
	h := newLinkMaxHeap(links)
	naive := make([]int, links)
	for step := 0; step < 5000; step++ {
		li := rng.Intn(links)
		length := rng.Intn(5) // 0 removes
		h.Update(li, length)
		naive[li] = length
		bestLi, bestLen := -1, 0
		for i, l := range naive {
			if l > bestLen {
				bestLi, bestLen = i, l
			}
		}
		got, ok := h.Max()
		if bestLi < 0 {
			if ok {
				t.Fatalf("step %d: Max=%d on empty heap", step, got)
			}
			continue
		}
		if !ok || got != bestLi {
			t.Fatalf("step %d: Max=%d,%v want %d (lengths %v)", step, got, ok, bestLi, naive)
		}
	}
	h.Reset()
	if _, ok := h.Max(); ok {
		t.Fatal("Max after Reset")
	}
}

// The sync scheduler's steady state must not allocate: the delivery
// snapshot and tick permutation are scratch buffers reused across
// rounds.
func TestSyncRoundAllocsSteadyState(t *testing.T) {
	g := graph.Ring(64)
	net := newMinNetwork(g, 5)
	sched := NewSyncScheduler()
	for i := 0; i < 10; i++ { // warm up link buffers and scratch space
		sched.RunRound(net)
	}
	avg := testing.AllocsPerRun(100, func() { sched.RunRound(net) })
	if avg > 1 {
		t.Fatalf("sync round allocates %.1f objects/round in steady state", avg)
	}
}

func BenchmarkSyncRoundAllocs(b *testing.B) {
	g := graph.Ring(256)
	net := newMinNetwork(g, 5)
	sched := NewSyncScheduler()
	for i := 0; i < 4; i++ {
		sched.RunRound(net)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunRound(net)
	}
}

func BenchmarkAdversarialRound(b *testing.B) {
	g := graph.RandomGnp(128, 0.1, rand.New(rand.NewSource(9)))
	net := newMinNetwork(g, 9)
	sched := NewAdversarialScheduler()
	for i := 0; i < 4; i++ {
		sched.RunRound(net)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunRound(net)
	}
}

func BenchmarkRunEventsRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := newEventMinNetwork(graph.Ring(1024), 13)
		res := net.RunEvents(EventConfig{Policy: EventPolicySync, MaxRounds: 1 << 20, QuiesceRounds: 100})
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}
