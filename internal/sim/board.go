package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"mdst/internal/detect"
)

// Envelope is one message in a wall-clock runtime's node inbox.
type Envelope struct {
	From NodeID
	Msg  Message
}

// Board is what the two wall-clock runtimes (LiveNetwork and
// internal/netrun's Cluster) share: the node loop and the counters a
// prober reads without touching a process.
//
// After every step a node loop posts its process's quiescence epoch
// (its StateVersion, or its state hash for a process that reports no
// versions) and its state hash. It re-hashes only when the version
// moved, so a silent node's tick costs one version compare. A node is
// silent once its posts stop changing — the silence test of
// Blin–Fraigniaud 2014 — and Sample reads the posts with atomic loads,
// taking no lock and never waiting on a node.
//
// The transports count their own sends: Sent when a message is accepted
// for delivery, Lost when a counted message can no longer arrive. The
// loop counts receives. Messages of the active kinds (the protocol's
// reduction kinds) feed the Dijkstra–Scholten deficit of Sample;
// periodic gossip is excluded, since a silent protocol keeps gossiping
// at its fixed point.
type Board struct {
	procs      []Process
	versioners []StateVersioner // nil where the process reports no versions
	fpers      []Fingerprinter  // nil where the process has no state hash
	versions   []atomic.Uint64  // posted quiescence epoch per node
	fps        []atomic.Uint64  // posted state hash per node

	kinds      sync.Map // kind -> *boardKind; the active kinds are stored up front
	activeSent atomic.Int64
	activeRecv atomic.Int64
	activeLost atomic.Int64
}

// boardKind is one message kind's send counter.
type boardKind struct {
	sent   atomic.Int64
	active bool
}

// NewBoard builds the board for procs. activeKinds names the message
// kinds whose counters feed Sample's deficit; empty leaves the deficit
// at zero, and detection then rests on the posts alone.
func NewBoard(procs []Process, activeKinds []string) *Board {
	n := len(procs)
	b := &Board{
		procs:      procs,
		versioners: make([]StateVersioner, n),
		fpers:      make([]Fingerprinter, n),
		versions:   make([]atomic.Uint64, n),
		fps:        make([]atomic.Uint64, n),
	}
	for id, p := range procs {
		b.versioners[id], _ = p.(StateVersioner)
		b.fpers[id], _ = p.(Fingerprinter)
	}
	for _, k := range activeKinds {
		b.kinds.Store(k, &boardKind{active: true})
	}
	return b
}

// Loop is node id's "do forever" loop. It posts once on entry, so state
// written while the network was stopped (corruption, preloads) is
// visible to Sample, then takes one inbox message or one tick at a time
// until halt closes, posting after every step. ctx is the node's
// context and inbox its queue.
func (b *Board) Loop(id NodeID, ctx *Context, inbox <-chan Envelope, tick time.Duration, halt <-chan struct{}) {
	p := b.procs[id]
	b.post(id, true)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-halt:
			return
		case env := <-inbox:
			// Read the kind before Receive: the handler may forward the
			// message, after which it is not ours to read (see Message).
			active := b.active(env.Msg.Kind())
			p.Receive(ctx, env.From, env.Msg)
			if active {
				b.activeRecv.Add(1)
			}
		case <-ticker.C:
			p.Tick(ctx)
		}
		b.post(id, false)
	}
}

// post publishes node id's quiescence epoch and state hash. Unless force
// is set it returns at once when the version did not move. Only id's
// own loop writes these posts.
func (b *Board) post(id NodeID, force bool) {
	vs := b.versioners[id]
	var v uint64
	if vs != nil {
		v = vs.StateVersion()
		if !force && v == b.versions[id].Load() {
			return
		}
	}
	var f uint64
	if fp := b.fpers[id]; fp != nil {
		f = fp.Fingerprint()
	}
	if vs == nil {
		// No version to report: the hash moves exactly when state does.
		v = f
	}
	b.fps[id].Store(f)
	b.versions[id].Store(v)
}

// kind returns the counter of one message kind, adding it on first use.
func (b *Board) kind(kind string) *boardKind {
	k, ok := b.kinds.Load(kind)
	if !ok {
		k, _ = b.kinds.LoadOrStore(kind, new(boardKind))
	}
	return k.(*boardKind)
}

// active reports whether kind counts toward the deficit.
func (b *Board) active(kind string) bool {
	k, ok := b.kinds.Load(kind)
	return ok && k.(*boardKind).active
}

// Sent counts one message of the given kind accepted for delivery. The
// caller reads the kind before it hands the message off.
func (b *Board) Sent(kind string) {
	k := b.kind(kind)
	k.sent.Add(1)
	if k.active {
		b.activeSent.Add(1)
	}
}

// Lost settles one counted message that will never be received: the
// self-stabilizing protocol re-issues whatever work it carried.
func (b *Board) Lost(kind string) {
	if b.active(kind) {
		b.activeLost.Add(1)
	}
}

// Rebaseline settles every active message not yet received as lost. A
// runtime whose Stop discards the messages in flight calls it before
// the next phase starts, while no loop and no transport runs.
func (b *Board) Rebaseline() {
	b.activeLost.Store(b.activeSent.Load() - b.activeRecv.Load())
}

// Sample takes one convergence-detection observation: the posted
// version vector, the combined fingerprint of the posted hashes and the
// active-kind counters. It is safe to call at any time. Received (with
// lost) is loaded before the per-node scan and sent after it, so the
// deficit can only overestimate what is in flight: a skewed sample
// delays a certificate, never forges one.
func (b *Board) Sample() detect.Sample {
	s := detect.Sample{Versions: make([]uint64, len(b.procs))}
	s.ActiveReceived = b.activeRecv.Load() + b.activeLost.Load()
	for id := range s.Versions {
		s.Versions[id] = b.versions[id].Load()
		s.Fingerprint ^= mixNode(id, b.fps[id].Load())
	}
	s.ActiveSent = b.activeSent.Load()
	return s
}

// Traffic returns the messages sent so far, in total and per kind (kinds
// never sent are left out). The counts accumulate across restarts.
func (b *Board) Traffic() (total int64, byKind map[string]int64) {
	byKind = make(map[string]int64)
	b.kinds.Range(func(k, v any) bool {
		if n := v.(*boardKind).sent.Load(); n > 0 {
			byKind[k.(string)] = n
			total += n
		}
		return true
	})
	return total, byKind
}
