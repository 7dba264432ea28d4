package sim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdst/internal/graph"
)

// liveProc is a min-gossip process with guarded state writes: the
// version moves exactly when min changes, never on no-op receives or
// ticks — the same contract the protocol implementations give the
// incremental fingerprint machinery.
type liveProc struct {
	id      int
	min     int
	version uint64
}

func (p *liveProc) Init(*Context) {}
func (p *liveProc) Tick(ctx *Context) {
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, minMsg{p.min})
	}
}
func (p *liveProc) Receive(_ *Context, _ NodeID, m Message) {
	if v := m.(minMsg).val; v < p.min {
		p.min = v
		p.version++
	}
}
func (p *liveProc) Fingerprint() uint64  { return uint64(p.min) + 1 }
func (p *liveProc) StateVersion() uint64 { return p.version }

func newLiveMin(g *graph.Graph, tick time.Duration) *LiveNetwork {
	return NewLiveNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &liveProc{id: id, min: id}
	}, LiveConfig{TickInterval: tick})
}

// Satellite: Fingerprint must be safe to call concurrently with a
// running network (it used to be "only safe after Stop"). Several
// goroutines hammer the probe while the nodes gossip; the race detector
// (make race covers this package) is the real assertion, the final
// fingerprint check proves the probes converge on the true state.
func TestLiveFingerprintConcurrentWithRun(t *testing.T) {
	g := graph.RandomGnp(12, 0.4, rand.New(rand.NewSource(7)))
	ln := newLiveMin(g, 100*time.Microsecond)
	ln.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ln.Fingerprint()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	ln.Stop()

	// The busy-spinning probers can starve the node goroutines on a
	// single-CPU machine, so convergence within the hammering phase is
	// not guaranteed — let the network finish undisturbed instead of
	// asserting a wall-clock race.
	if _, quiesced := ln.RunUntilQuiescent(QuiesceConfig{
		ProbeInterval: time.Millisecond, StableProbes: 20, MaxWait: 30 * time.Second,
	}); !quiesced {
		t.Fatal("no quiescence after the concurrent-probing phase")
	}

	// All nodes have converged on min=0; the cached combine must agree
	// with a from-scratch mix of the true final state.
	var want uint64
	for id := 0; id < g.N(); id++ {
		if got := ln.Process(id).(*liveProc).min; got != 0 {
			t.Fatalf("node %d min=%d after run", id, got)
		}
		want ^= mixNode(id, uint64(0)+1)
	}
	if got := ln.Fingerprint(); got != want {
		t.Fatalf("fingerprint %x after concurrent probing, want %x", got, want)
	}
}

// RunUntilQuiescent must detect the min-gossip fixed point, and the
// incremental cache must make detection O(changed) per probe: a second
// quiescence pass over an already-quiesced network — every node still
// ticking and gossiping, versions unmoved — must re-hash nothing at all.
func TestLiveRunUntilQuiescentIncremental(t *testing.T) {
	g := graph.Ring(10)
	ln := newLiveMin(g, 100*time.Microsecond)
	probes, quiesced := ln.RunUntilQuiescent(QuiesceConfig{
		ProbeInterval: time.Millisecond,
		StableProbes:  20,
		MaxWait:       20 * time.Second,
	})
	if !quiesced {
		t.Fatalf("no quiescence after %d probes", probes)
	}
	for id := 0; id < g.N(); id++ {
		if got := ln.Process(id).(*liveProc).min; got != 0 {
			t.Fatalf("quiesced with node %d at min=%d", id, got)
		}
	}

	before := ln.FingerprintRecomputes()
	_, quiesced = ln.RunUntilQuiescent(QuiesceConfig{
		ProbeInterval: time.Millisecond,
		StableProbes:  20,
		MaxWait:       20 * time.Second,
	})
	if !quiesced {
		t.Fatal("no quiescence on the second pass")
	}
	if delta := ln.FingerprintRecomputes() - before; delta != 0 {
		t.Fatalf("quiesced network re-hashed %d nodes (StateVersion fast path broken)", delta)
	}
}

// InvalidateFingerprints is the contract for direct state mutation while
// stopped (corruption, preloads): the cache must be discarded, because
// an untouched node is otherwise never re-hashed.
func TestLiveInvalidateFingerprints(t *testing.T) {
	g := graph.Ring(6)
	ln := newLiveMin(g, 100*time.Microsecond)
	before := ln.Fingerprint()
	ln.Process(3).(*liveProc).min = -7 // direct mutation, invisible to the cache
	ln.InvalidateFingerprints()
	if ln.Fingerprint() == before {
		t.Fatal("fingerprint unchanged after invalidation of a mutated node")
	}
}

// The restart loop (Start–Stop–inspect–Start) must keep the cache
// coherent: quiesce, stop, mutate one node through its own setter-like
// path (version bump), restart, and the network must re-converge and the
// probe must see it.
func TestLiveFingerprintAcrossRestart(t *testing.T) {
	g := graph.Ring(8)
	ln := newLiveMin(g, 100*time.Microsecond)
	if _, quiesced := ln.RunUntilQuiescent(QuiesceConfig{
		ProbeInterval: time.Millisecond, StableProbes: 20, MaxWait: 20 * time.Second,
	}); !quiesced {
		t.Fatal("no initial quiescence")
	}
	fp1 := ln.Fingerprint()
	p := ln.Process(5).(*liveProc)
	p.min = -1
	p.version++
	ln.InvalidateFingerprints()
	if _, quiesced := ln.RunUntilQuiescent(QuiesceConfig{
		ProbeInterval: time.Millisecond, StableProbes: 20, MaxWait: 20 * time.Second,
	}); !quiesced {
		t.Fatal("no re-quiescence after restart")
	}
	for id := 0; id < g.N(); id++ {
		if got := ln.Process(id).(*liveProc).min; got != -1 {
			t.Fatalf("node %d min=%d after re-convergence", id, got)
		}
	}
	if ln.Fingerprint() == fp1 {
		t.Fatal("fingerprint did not move across the -1 re-convergence")
	}
}

// relayMsg is a token with one holder at a time. Kind reads the field
// that each holder writes, so a transport that touches the token after
// handing it off races with the next holder.
type relayMsg struct{ hops int }

func (m *relayMsg) Kind() string {
	if m.hops < 0 {
		return "unreachable"
	}
	return "relay"
}
func (m *relayMsg) Size() int { return 1 }

// relayHops is how many hops each token makes before it stops.
const relayHops = 200

// relayProc starts one token at Init and, on every receive, counts the
// hop on the token itself and forwards the same pointer to its first
// neighbor until the token has made relayHops hops.
type relayProc struct {
	tok  *relayMsg // the token this node started
	done *sync.WaitGroup
}

func (p *relayProc) Init(ctx *Context) {
	ctx.Send(ctx.Neighbors()[0], p.tok)
}
func (p *relayProc) Tick(*Context) {}
func (p *relayProc) Receive(ctx *Context, _ NodeID, m Message) {
	tok := m.(*relayMsg)
	tok.hops++
	if tok.hops == relayHops {
		p.done.Done()
		return
	}
	ctx.Send(ctx.Neighbors()[0], tok)
}

// A message handed to Send belongs to its next holder: neither the live
// transport's send path nor its receive loop may read it afterwards
// (both used to call Kind after the handoff). The race detector (make
// race covers this package) is the real assertion; the counts check
// that classifying before the handoff still counts every message.
func TestLiveTransportLeavesHandedOffMessagesAlone(t *testing.T) {
	g := graph.Ring(6)
	var done sync.WaitGroup
	done.Add(g.N())
	tokens := make([]*relayMsg, g.N())
	ln := NewLiveNetwork(g, func(id NodeID, _ []NodeID) Process {
		tokens[id] = &relayMsg{}
		return &relayProc{tok: tokens[id], done: &done}
	}, LiveConfig{ActiveKinds: []string{"relay"}, CountKinds: true})
	ln.Start()
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		ln.Stop()
		t.Fatal("tokens did not finish their hops")
	}
	ln.Stop()
	for id, tok := range tokens {
		if tok.hops != relayHops {
			t.Fatalf("token %d made %d hops, want %d", id, tok.hops, relayHops)
		}
	}
	want := int64(g.N() * relayHops)
	if got := ln.SentByKind()["relay"]; got != want {
		t.Fatalf("counted %d relay sends, want %d", got, want)
	}
	if s := ln.ProbeSample(); s.ActiveSent != want || s.ActiveReceived != want {
		t.Fatalf("active sent/received %d/%d, want %d/%d",
			s.ActiveSent, s.ActiveReceived, want, want)
	}
}
