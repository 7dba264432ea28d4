package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"mdst/internal/detect"
	"mdst/internal/graph"
)

// LiveNetwork runs each node as a goroutine exchanging messages over Go
// channels — the natural CSP rendering of the paper's asynchronous
// message-passing model. A node's inbox is a single buffered channel;
// because channel delivery preserves send order per sender, each
// (sender, receiver) pair sees FIFO delivery, which is exactly the
// paper's reliable-FIFO-link assumption.
//
// LiveNetwork trades determinism for real concurrency; the deterministic
// Network is used for experiments, the live runtime for validating the
// protocol under true parallelism (run with -race in tests).
//
// Quiescence detection mirrors the deterministic simulator's incremental
// scheme: every node step sets a per-node touched flag, Fingerprint
// re-hashes only touched nodes (and of those only the ones whose
// StateVersion moved), and the combined hash is the same
// order-independent splitmix mix, patched in O(changed) per probe.
// Fingerprint snapshots each node under its per-node step lock, so it is
// safe to call concurrently with a running network — RunUntilQuiescent
// is built on that.
type LiveNetwork struct {
	g      *graph.Graph
	procs  []Process
	inbox  []chan liveEnvelope
	wg     sync.WaitGroup
	tick   time.Duration
	inboxN int

	// stop is replaced on every Start so the network is restartable:
	// run–pause–inspect loops (e.g. the differential tests that poll the
	// legitimacy predicate between bursts) Start again after Stop.
	// lifecycle serializes whole Start/Stop transitions (a Start cannot
	// overlap a Stop that is still draining goroutines); mu guards the
	// stop field for concurrent readers in send.
	lifecycle sync.Mutex
	mu        sync.RWMutex
	stop      chan struct{}
	inited    bool
	running   bool

	// Per-node step locks: node id's goroutine holds nodeMu[id] around
	// every Tick/Receive, and Fingerprint holds it while hashing id — the
	// only cross-goroutine access to process state while running.
	// Fingerprint never blocks on a channel while holding a node lock, so
	// probing cannot extend a send-cycle into a deadlock.
	nodeMu  []sync.Mutex
	touched []atomic.Bool // node stepped since its last re-hash

	// Incremental fingerprint cache (probeMu serializes probers): fps
	// holds each node's last known state hash, combined their
	// order-independent mix, versions the StateVersion observed at the
	// last re-hash for processes that support the fast path.
	probeMu    sync.Mutex
	fps        []uint64
	versions   []uint64
	versioners []StateVersioner // non-nil where the process supports it
	combined   uint64
	fpValid    bool
	recomputes atomic.Int64
	sent       atomic.Int64

	// Active-kind accounting for convergence detection (internal/detect):
	// the Dijkstra–Scholten deficit activeSent-activeRecv counts the
	// reduction messages still in flight — periodic gossip is excluded,
	// since a silent protocol keeps gossiping at its fixed point. Both
	// counters only move on messages whose Kind is in active.
	active     map[string]struct{}
	activeSent atomic.Int64
	activeRecv atomic.Int64

	// Per-kind send counters for the metrics stream, gated by
	// LiveConfig.CountKinds so the hot send path pays nothing when the
	// stream is off. Map of string -> *atomic.Int64, lock-free.
	countKinds bool
	kindSent   sync.Map
}

type liveEnvelope struct {
	from NodeID
	msg  Message
}

// LiveConfig controls a LiveNetwork.
type LiveConfig struct {
	// TickInterval is the gossip period of each node's "do forever" loop
	// (default 200µs).
	TickInterval time.Duration
	// InboxSize is each node's channel buffer (default 4096). A full
	// inbox blocks the sender, which models link back-pressure.
	InboxSize int
	// ActiveKinds names the message kinds whose sent/received counters
	// feed convergence detection (ProbeSample's Dijkstra–Scholten
	// deficit) — the protocol's reduction kinds, which must both drain
	// and stop flowing at quiescence. Empty disables the accounting
	// (ProbeSample then reports a zero deficit and detection rests on
	// version-vector and fingerprint stability alone).
	ActiveKinds []string
	// CountKinds enables per-message-kind send counters (SentByKind) for
	// the metrics stream. Off by default: the counters add a sync.Map
	// lookup per send to the hot path, so only metrics-collecting runs
	// pay for them.
	CountKinds bool
}

// NewLiveNetwork builds the live runtime over g. The factory contract is
// the same as NewNetwork's.
func NewLiveNetwork(g *graph.Graph, factory func(id NodeID, neighbors []NodeID) Process, cfg LiveConfig) *LiveNetwork {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 200 * time.Microsecond
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	n := g.N()
	ln := &LiveNetwork{
		g:          g,
		procs:      make([]Process, n),
		inbox:      make([]chan liveEnvelope, n),
		tick:       cfg.TickInterval,
		inboxN:     cfg.InboxSize,
		nodeMu:     make([]sync.Mutex, n),
		touched:    make([]atomic.Bool, n),
		fps:        make([]uint64, n),
		versions:   make([]uint64, n),
		versioners: make([]StateVersioner, n),
		countKinds: cfg.CountKinds,
	}
	if len(cfg.ActiveKinds) > 0 {
		ln.active = make(map[string]struct{}, len(cfg.ActiveKinds))
		for _, k := range cfg.ActiveKinds {
			ln.active[k] = struct{}{}
		}
	}
	for id := 0; id < n; id++ {
		ln.inbox[id] = make(chan liveEnvelope, cfg.InboxSize)
	}
	for id := 0; id < n; id++ {
		ln.procs[id] = factory(id, g.Neighbors(id))
		if vs, ok := ln.procs[id].(StateVersioner); ok {
			ln.versioners[id] = vs
		}
	}
	return ln
}

// Start launches one goroutine per node. Each goroutine alternates
// between draining its inbox and ticking on its gossip timer until Stop.
// Start after a Stop resumes execution with the nodes' current state
// (Init is only called on the first Start: self-stabilizing processes
// must not reset their state).
func (ln *LiveNetwork) Start() {
	ln.lifecycle.Lock()
	defer ln.lifecycle.Unlock()
	if ln.running {
		panic("sim: LiveNetwork.Start while running")
	}
	stop := make(chan struct{})
	ln.mu.Lock()
	ln.stop = stop
	ln.mu.Unlock()
	ln.running = true
	first := !ln.inited
	ln.inited = true

	for id := 0; id < ln.g.N(); id++ {
		id := id
		ctx := &Context{
			id:   id,
			nbrs: ln.g.Neighbors(id),
			send: ln.send,
		}
		if first {
			ln.procs[id].Init(ctx)
		}
		ln.wg.Add(1)
		go func() {
			defer ln.wg.Done()
			ticker := time.NewTicker(ln.tick)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case env := <-ln.inbox[id]:
					// Classify before Receive: the handler may forward
					// the message, after which it is not ours to read.
					active := ln.isActive(env.msg)
					ln.nodeMu[id].Lock()
					ln.procs[id].Receive(ctx, env.from, env.msg)
					ln.touched[id].Store(true)
					ln.nodeMu[id].Unlock()
					if active {
						ln.activeRecv.Add(1)
					}
				case <-ticker.C:
					ln.nodeMu[id].Lock()
					ln.procs[id].Tick(ctx)
					ln.touched[id].Store(true)
					ln.nodeMu[id].Unlock()
				}
			}
		}()
	}
}

// isActive reports whether m counts toward the active-kind deficit.
func (ln *LiveNetwork) isActive(m Message) bool {
	if ln.active == nil {
		return false
	}
	_, ok := ln.active[m.Kind()]
	return ok
}

func (ln *LiveNetwork) send(from, to NodeID, m Message) {
	if !ln.g.HasEdge(from, to) {
		panic("sim: live send to non-neighbor")
	}
	ln.mu.RLock()
	stop := ln.stop
	ln.mu.RUnlock()
	// Read the kind before the handoff: once m is on the inbox the
	// receiver owns it (see Message).
	kind := m.Kind()
	select {
	case ln.inbox[to] <- liveEnvelope{from: from, msg: m}:
		ln.sent.Add(1)
		if ln.active != nil {
			if _, ok := ln.active[kind]; ok {
				ln.activeSent.Add(1)
			}
		}
		if ln.countKinds {
			ctr, ok := ln.kindSent.Load(kind)
			if !ok {
				ctr, _ = ln.kindSent.LoadOrStore(kind, new(atomic.Int64))
			}
			ctr.(*atomic.Int64).Add(1)
		}
	case <-stop:
		// Shutting down: drop the message (links are being torn down).
		// Messages already accepted onto inboxes survive a Stop/Start
		// cycle (the channels persist), so the active-kind counters stay
		// balanced across restarts.
	}
}

// Stop halts all node goroutines and waits for them to exit. After Stop
// returns, process states can be inspected safely, and Start may be
// called again to resume.
func (ln *LiveNetwork) Stop() {
	ln.lifecycle.Lock()
	defer ln.lifecycle.Unlock()
	if !ln.running {
		return
	}
	close(ln.stop)
	ln.wg.Wait()
	// Only now is a subsequent Start safe: every goroutine has exited.
	ln.running = false
}

// RunFor starts the network, lets it run for d, then stops it.
func (ln *LiveNetwork) RunFor(d time.Duration) {
	ln.Start()
	time.Sleep(d)
	ln.Stop()
}

// Process returns the process at node id. Only safe to call before Start
// or after Stop.
func (ln *LiveNetwork) Process(id NodeID) Process { return ln.procs[id] }

// Sent returns the number of messages accepted onto inboxes so far. It
// is maintained atomically and safe to read at any time.
func (ln *LiveNetwork) Sent() int64 { return ln.sent.Load() }

// SentByKind returns a copy of the per-kind send counters, nil unless
// the network was built with LiveConfig.CountKinds. Safe to read at any
// time (atomic reads).
func (ln *LiveNetwork) SentByKind() map[string]int64 {
	if !ln.countKinds {
		return nil
	}
	out := make(map[string]int64)
	ln.kindSent.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// FingerprintRecomputes counts per-node state hashes performed by
// Fingerprint — the live counterpart of the simulator's
// Metrics.FingerprintRecomputes figure of merit.
func (ln *LiveNetwork) FingerprintRecomputes() int64 { return ln.recomputes.Load() }

// InvalidateFingerprints discards the incremental fingerprint cache.
// Call it after mutating process state directly (SetState, Corrupt,
// preloads) while the network is stopped, when the process does not
// report state versions; the next Fingerprint re-hashes everything.
func (ln *LiveNetwork) InvalidateFingerprints() {
	ln.probeMu.Lock()
	ln.fpValid = false
	ln.probeMu.Unlock()
}

// nodeFingerprint hashes one process's state. Caller holds the node's
// step lock.
func (ln *LiveNetwork) nodeFingerprint(id NodeID) uint64 {
	ln.recomputes.Add(1)
	if fp, ok := ln.procs[id].(Fingerprinter); ok {
		return fp.Fingerprint()
	}
	return 0
}

// Fingerprint combines all process states for quiescence detection
// (processes that do not implement Fingerprinter contribute a
// constant). It is safe to call concurrently with a running network:
// each node is snapshotted under its per-node step lock, so a probe
// sees only whole atomic steps. Only nodes touched since the last probe
// are re-hashed, and of those only the ones whose StateVersion moved —
// at quiescence every node still ticks, so the per-probe cost is O(n)
// version compares and O(changed) hashes, not a full rehash.
func (ln *LiveNetwork) Fingerprint() uint64 { return ln.probe(nil) }

// probe is Fingerprint's implementation; when versions is non-nil it
// additionally copies out the per-node quiescence-epoch vector (the
// StateVersion observed at each node's last re-hash — current for
// untouched and version-stable nodes — or the node's state hash where
// the process reports no versions).
func (ln *LiveNetwork) probe(versions []uint64) uint64 {
	ln.probeMu.Lock()
	defer ln.probeMu.Unlock()
	if !ln.fpValid {
		var combined uint64
		for id := range ln.procs {
			ln.nodeMu[id].Lock()
			ln.touched[id].Store(false)
			f := ln.nodeFingerprint(id)
			if vs := ln.versioners[id]; vs != nil {
				ln.versions[id] = vs.StateVersion()
			}
			ln.nodeMu[id].Unlock()
			ln.fps[id] = f
			combined ^= mixNode(id, f)
		}
		ln.combined = combined
		ln.fpValid = true
	} else {
		for id := range ln.procs {
			// Lock-free fast path: an untouched node took no step since its
			// last re-hash, so the cached hash is current. A step landing
			// right after the load is caught by the next probe — exactly the
			// snapshot semantics quiescence detection needs.
			if !ln.touched[id].Load() {
				continue
			}
			ln.nodeMu[id].Lock()
			ln.touched[id].Store(false)
			if vs := ln.versioners[id]; vs != nil {
				v := vs.StateVersion()
				if v == ln.versions[id] {
					// Touched but version unmoved: the steps were no-ops
					// (the fixed-point case once the node quiesces).
					ln.nodeMu[id].Unlock()
					continue
				}
				ln.versions[id] = v
			}
			f := ln.nodeFingerprint(id)
			ln.nodeMu[id].Unlock()
			if f != ln.fps[id] {
				ln.combined ^= mixNode(id, ln.fps[id]) ^ mixNode(id, f)
				ln.fps[id] = f
			}
		}
	}
	if versions != nil {
		for id := range ln.procs {
			if ln.versioners[id] != nil {
				versions[id] = ln.versions[id]
			} else {
				versions[id] = ln.fps[id]
			}
		}
	}
	return ln.combined
}

// ProbeSample takes one in-band convergence-detection observation:
// the incremental combined fingerprint, the per-node version vector and
// the active-kind message counters, packaged for detect.Detector. Safe
// to call concurrently with a running network (same locking discipline
// as Fingerprint). The counter ordering is conservative: received is
// loaded before the fingerprint pass and sent after it, so the sampled
// deficit can only overestimate the number of active messages in flight
// — a transiently skewed sample delays a certificate, never forges one.
func (ln *LiveNetwork) ProbeSample() detect.Sample {
	s := detect.Sample{Versions: make([]uint64, len(ln.procs))}
	s.ActiveReceived = ln.activeRecv.Load()
	s.Fingerprint = ln.probe(s.Versions)
	s.ActiveSent = ln.activeSent.Load()
	return s
}

// QuiesceConfig controls RunUntilQuiescent.
type QuiesceConfig struct {
	// ProbeInterval is the fingerprint sampling period (default 2ms).
	ProbeInterval time.Duration
	// StableProbes is the number of consecutive unchanged fingerprints
	// required to declare quiescence (default 25). The covered wall-time
	// window (StableProbes × ProbeInterval) must exceed the protocol's
	// longest internal timer — for the MDST protocol a full jittered
	// search retry period — or a slow phase is mistaken for a fixed point.
	StableProbes int
	// MaxWait bounds the whole call (default 30s).
	MaxWait time.Duration
}

// RunUntilQuiescent starts the network, probes the incremental
// fingerprint until it is unchanged for StableProbes consecutive probes
// or MaxWait elapses, then stops the network. It returns the number of
// probes taken and whether quiescence was observed. Like the
// deterministic runner's detection it is a heuristic — messages still
// buffered in channels are invisible to the probe — so callers verify
// the actual predicate (legitimacy) on the stopped network afterwards.
func (ln *LiveNetwork) RunUntilQuiescent(cfg QuiesceConfig) (probes int, quiesced bool) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Millisecond
	}
	if cfg.StableProbes <= 0 {
		cfg.StableProbes = 25
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 30 * time.Second
	}
	ln.Start()
	defer ln.Stop()
	deadline := time.Now().Add(cfg.MaxWait)
	ticker := time.NewTicker(cfg.ProbeInterval)
	defer ticker.Stop()
	last := ln.Fingerprint()
	probes = 1
	stable := 0
	for time.Now().Before(deadline) {
		<-ticker.C
		fp := ln.Fingerprint()
		probes++
		if fp == last {
			stable++
			if stable >= cfg.StableProbes {
				return probes, true
			}
		} else {
			last = fp
			stable = 0
		}
	}
	return probes, false
}
