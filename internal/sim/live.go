package sim

import (
	"sync"
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
// Each node goroutine runs Board.Loop, which posts the node's version
// and state hash after every step, so ProbeSample observes a running
// network without locks and without waiting on any node.
type LiveNetwork struct {
	g     *graph.Graph
	procs []Process
	board *Board
	inbox []chan Envelope
	// Node u's link to its i-th neighbor is entry linkOff[u]+i of at,
	// which holds u's position in that neighbor's list (Envelope.At).
	linkOff []int
	at      []int
	wg      sync.WaitGroup
	tick    time.Duration

	// The network is restartable: the harness's wall-clock driver Stops
	// it to check legitimacy and Starts it again when the check fails.
	// stop is the running phase's halt channel, nil while stopped;
	// lifecycle serializes Start and Stop (a Start cannot overlap a Stop
	// that is still draining goroutines).
	lifecycle sync.Mutex
	stop      chan struct{}
}

// LiveConfig controls a LiveNetwork.
type LiveConfig struct {
	// TickInterval is the gossip period of each node's "do forever" loop
	// (default 200µs).
	TickInterval time.Duration
	// ActiveKinds names the message kinds whose sent/received counters
	// feed convergence detection (ProbeSample's Dijkstra–Scholten
	// deficit) — the protocol's reduction kinds, which must both drain
	// and stop flowing at quiescence. Empty disables the accounting
	// (ProbeSample then reports a zero deficit and detection rests on
	// version-vector and fingerprint stability alone).
	ActiveKinds []string
}

// liveInboxSize is each node's channel buffer in envelopes, one message
// each (netrun's inboxes count frames instead). A full inbox blocks the
// sender, which models link back-pressure.
const liveInboxSize = 4096

// NewLiveNetwork builds the live runtime over g. The factory contract is
// the same as NewNetwork's.
func NewLiveNetwork(g *graph.Graph, factory func(id NodeID, neighbors []NodeID) Process, cfg LiveConfig) *LiveNetwork {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 200 * time.Microsecond
	}
	n := g.N()
	ln := &LiveNetwork{
		g:       g,
		procs:   make([]Process, n),
		inbox:   make([]chan Envelope, n),
		linkOff: make([]int, n),
		at:      make([]int, 0, 2*g.M()),
		tick:    cfg.TickInterval,
	}
	for id := 0; id < n; id++ {
		ln.inbox[id] = make(chan Envelope, liveInboxSize)
		ln.procs[id] = factory(id, g.Neighbors(id))
		ln.linkOff[id] = len(ln.at)
		for _, v := range g.Neighbors(id) {
			ln.at = append(ln.at, posIn(g, v, id))
		}
	}
	ln.board = NewBoard(ln.procs, cfg.ActiveKinds)
	return ln
}

// Start launches one goroutine per node, each running Board.Loop until
// Stop. A Start after a Stop resumes execution with the nodes' current
// state, and messages still on the inboxes survive the pause. Each
// phase's contexts send on that phase's stop channel, so a send needs
// no lock to find it.
func (ln *LiveNetwork) Start() {
	ln.lifecycle.Lock()
	defer ln.lifecycle.Unlock()
	if ln.stop != nil {
		panic("sim: LiveNetwork.Start while running")
	}
	stop := make(chan struct{})
	ln.stop = stop
	send := func(from NodeID, i int, m Message) { ln.send(from, i, m, stop) }
	for id := range ln.procs {
		ctx := &Context{id: id, nbrs: ln.g.Neighbors(id), send: send, at: -1}
		ln.wg.Add(1)
		go func(id NodeID) {
			defer ln.wg.Done()
			ln.board.Loop(id, ctx, ln.inbox[id], ln.tick, stop)
		}(id)
	}
}

// send puts m on the inbox of node from's neighbor at position i
// (Context.SendAt checked i), naming the sender by its position there.
func (ln *LiveNetwork) send(from NodeID, i int, m Message, stop <-chan struct{}) {
	to := ln.g.Neighbors(from)[i]
	at := ln.at[ln.linkOff[from]+i]
	// Read the kind before the handoff: once m is on the inbox the
	// receiver owns it (see Message).
	kind := m.Kind()
	select {
	case ln.inbox[to] <- Envelope{At: at, Msg: m}:
		ln.board.Sent(kind)
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
	if ln.stop == nil {
		return
	}
	close(ln.stop)
	ln.wg.Wait()
	// Only now is a subsequent Start safe: every goroutine has exited.
	ln.stop = nil
}

// Process returns the process at node id. Only safe to call before Start
// or after Stop.
func (ln *LiveNetwork) Process(id NodeID) Process { return ln.procs[id] }

// Traffic returns the messages accepted onto inboxes so far, in total
// and per kind (Board.Traffic). Safe to call at any time.
func (ln *LiveNetwork) Traffic() (total int64, byKind map[string]int64) {
	return ln.board.Traffic()
}

// ProbeSample takes one in-band convergence-detection observation of
// the posted node states and counters (Board.Sample). Safe to call at
// any time, concurrently with a running network; after Stop it reflects
// every node's last step exactly.
func (ln *LiveNetwork) ProbeSample() detect.Sample { return ln.board.Sample() }
