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
// node loop's re-hash test. hashes counts Fingerprint calls.
type liveProc struct {
	id      int
	min     int
	version uint64
	hashes  int
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
func (p *liveProc) Fingerprint() uint64  { p.hashes++; return minHash(p.min) }
func (p *liveProc) StateVersion() uint64 { return p.version }

func minHash(min int) uint64 { return uint64(min) + 1 }

func newLiveMin(g *graph.Graph, tick time.Duration) *LiveNetwork {
	return NewLiveNetwork(g, func(id NodeID, _ []NodeID) Process {
		return &liveProc{id: id, min: id}
	}, LiveConfig{TickInterval: tick})
}

// uniformMix is the from-scratch combined fingerprint of n nodes that
// all hold min.
func uniformMix(n, min int) uint64 {
	var want uint64
	for id := 0; id < n; id++ {
		want ^= mixNode(id, minHash(min))
	}
	return want
}

// runUntilFingerprint runs ln until its sample reads want, then stops
// it. A stuck post fails the test at the deadline.
func runUntilFingerprint(t *testing.T, ln *LiveNetwork, want uint64) {
	t.Helper()
	ln.Start()
	defer ln.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for ln.ProbeSample().Fingerprint != want {
		if time.Now().After(deadline) {
			t.Fatalf("sampled fingerprint never reached %x", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkMins fails unless every node holds min.
func checkMins(t *testing.T, ln *LiveNetwork, n, min int) {
	t.Helper()
	for id := 0; id < n; id++ {
		if got := ln.Process(id).(*liveProc).min; got != min {
			t.Fatalf("node %d min=%d, want %d", id, got, min)
		}
	}
}

// ProbeSample must be safe to call concurrently with a running network.
// Several goroutines hammer it while the nodes gossip; the race
// detector (make race covers this package) is the real assertion. Once
// stopped, the sample must equal a from-scratch mix of the true states,
// converged or not, since every loop posts after its last step.
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
					ln.ProbeSample()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	ln.Stop()

	s := ln.ProbeSample()
	var want uint64
	for id := 0; id < g.N(); id++ {
		p := ln.Process(id).(*liveProc)
		want ^= mixNode(id, minHash(p.min))
		if s.Versions[id] != p.version {
			t.Fatalf("node %d: sampled version %d, process at %d", id, s.Versions[id], p.version)
		}
	}
	if s.Fingerprint != want {
		t.Fatalf("fingerprint %x after concurrent probing, want %x", s.Fingerprint, want)
	}

	// The busy-spinning probers can starve the node goroutines on a
	// single-CPU machine, so convergence is checked undisturbed.
	runUntilFingerprint(t, ln, uniformMix(g.N(), 0))
	checkMins(t, ln, g.N(), 0)
}

// A quiesced network keeps ticking and gossiping, but no version moves,
// so a restart costs each node exactly one hash: the entry post.
func TestLiveQuiescedRestartHashesOncePerNode(t *testing.T) {
	g := graph.Ring(10)
	ln := newLiveMin(g, 100*time.Microsecond)
	runUntilFingerprint(t, ln, uniformMix(g.N(), 0))
	checkMins(t, ln, g.N(), 0)
	for id := 0; id < g.N(); id++ {
		ln.Process(id).(*liveProc).hashes = 0
	}
	ln.RunFor(20 * time.Millisecond)
	for id := 0; id < g.N(); id++ {
		if got := ln.Process(id).(*liveProc).hashes; got != 1 {
			t.Fatalf("node %d hashed %d times in a quiesced restart, want 1", id, got)
		}
	}
}

// State written while the network is stopped must show up after the
// next Start, even when the write leaves the version unmoved: node 5
// takes min=-1 directly, no other node can lower it, so only the entry
// post can report it. The network must then re-converge on -1.
func TestLiveFingerprintAcrossRestart(t *testing.T) {
	g := graph.Ring(8)
	ln := newLiveMin(g, 100*time.Microsecond)
	runUntilFingerprint(t, ln, uniformMix(g.N(), 0))
	fp0 := ln.ProbeSample().Fingerprint
	ln.Process(5).(*liveProc).min = -1
	runUntilFingerprint(t, ln, uniformMix(g.N(), -1))
	checkMins(t, ln, g.N(), -1)
	if ln.ProbeSample().Fingerprint == fp0 {
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
	}, LiveConfig{ActiveKinds: []string{"relay"}})
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
	if _, byKind := ln.Traffic(); byKind["relay"] != want {
		t.Fatalf("counted %d relay sends, want %d", byKind["relay"], want)
	}
	if s := ln.ProbeSample(); s.ActiveSent != want || s.ActiveReceived != want {
		t.Fatalf("active sent/received %d/%d, want %d/%d",
			s.ActiveSent, s.ActiveReceived, want, want)
	}
}
