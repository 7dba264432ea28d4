// Package netrun executes the protocol over real TCP connections: each
// node is a goroutine with a listener on the loopback interface, each
// graph edge is one TCP connection carrying messages in both
// directions, and each direction is written by a single goroutine —
// so every link is a reliable FIFO channel, exactly the paper's §2
// communication model realized by an actual network stack.
//
// The wire carries one fixed-layout format (codec.go): each message is
// a one-byte type tag and its fields as varints, about as many bytes as
// its O(log n)-bit words. The frame, not the message, is the unit at
// every goroutine hop (batch.go). A node's send appends to the
// direction's pending slice and wakes its writer only when a frame
// opens or reaches Config.BatchSize; the writer holds a partial frame
// for at most Config.BatchMaxWait, then writes everything pending as
// frames of at most BatchSize messages, one conn.Write each, so one
// node tick costs at most one syscall per neighbor. At batch size 1
// (the default) every frame carries one message. The reader hands each
// decoded frame to the receiving node's inbox, a channel of frames, as
// one sim.Envelope. Exactly one bufio.Reader reads a connection for its
// lifetime — it reads ahead, so a second reader on the same conn would
// silently lose buffered bytes (the hello handshake hands its reader to
// the edge reader for exactly this reason).
//
// The runtime is restartable: Stop tears down every connection and
// listener but keeps the node states, and a subsequent Start re-dials.
// For a self-stabilizing protocol a restart is just more asynchrony
// (messages in flight at Stop are lost, which the protocol must — and
// does — tolerate).
//
// Convergence is detectable in-band, without stopping anything: every
// node runs sim.Board's loop, which posts its process's quiescence
// epoch (StateVersion) and state hash after each step, and Start opens
// a side-channel control listener serving those observations over a
// dedicated TCP connection (DialProbe / ProbeConn.Sample). The
// harness's wall-clock driver (harness.Run with the tcp backend) feeds
// the samples to a detect.Detector and stops the cluster only once a
// quiescence certificate is issued, to check legitimacy; it Starts the
// cluster again only when that check fails (Restarts counts those
// re-starts).
//
// The control channel speaks one request/reply pair over one
// connection: the quiescence probe (a sequenced request answered by a
// probeReply), in the same codec. A caller that also wants traffic
// counters reads them in-process (Cluster.Traffic, lock-free while the
// cluster runs), so the probe is the only thing the control channel
// carries.
package netrun

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Config controls a Cluster.
type Config struct {
	// TickInterval is the gossip period of each node's "do forever" loop
	// (default 2ms: TCP round trips are slower than channel sends).
	TickInterval time.Duration
	// ActiveKinds names the message kinds whose sent/received counters
	// feed the control channel's quiescence samples (the protocol's
	// reduction kinds: they must both drain and stop flowing at the
	// fixed point, while periodic gossip keeps going forever). Empty
	// disables the accounting; probes then report a zero deficit and
	// detection rests on version-vector and fingerprint stability.
	ActiveKinds []string
	// BatchSize caps how many messages one wire frame may carry
	// (default 1: one message per frame). Above 1 each per-direction
	// writer coalesces pending messages into multi-message frames — see
	// batch.go for the flush rule and codec.go for the format.
	BatchSize int
	// BatchMaxWait bounds how long a partially filled frame may stay
	// open for further messages after its first (0: flush immediately
	// with whatever is already queued, so coalescing only amortizes
	// backlog and adds zero latency). Only meaningful above batch
	// size 1.
	BatchMaxWait time.Duration
}

// outboxSize caps the messages pending on one direction, its outbox. A
// full outbox drops the newest message — over TCP the protocol's
// periodic gossip refreshes any lost state, and dropping beats blocking
// the node loop.
const outboxSize = 1024

// inboxFrames is a node's inbox capacity in frames. A reader that finds
// the inbox full stops reading its socket, so back-pressure reaches the
// peer's writer through TCP flow control and, past outboxSize, its
// drops; the inbox only fills when the node loop falls behind. The loop
// takes a whole frame per wake, and a neighbor's writer sends about one
// frame per tick at steady state, so 256 frames (8 KB per node) hold
// many ticks of traffic from every neighbor at the degrees the cluster
// runs.
const inboxFrames = 256

// helloTimeout bounds the accept side's wait for a dialer's hello. A
// real dialer writes its hello right after connecting, so a peer that
// stays silent fails Start instead of blocking it.
const helloTimeout = time.Second

// Cluster runs one process per node of g over loopback TCP.
type Cluster struct {
	g     *graph.Graph
	cfg   Config
	procs []sim.Process
	// board runs the node loops and holds the send counters and the
	// posted node states the control channel serves. The send counters
	// accumulate across restarts.
	board *sim.Board

	mu      sync.Mutex
	running bool
	starts  int // Start calls so far; starts-1 is the restart count
	// Stop shuts a phase down in order: halt ends the node loops (the
	// only senders), then stop lets the edge writers flush what is still
	// queued and exit, and only then are the connections closed. Every
	// message counted sent thus reaches the wire unless its link died.
	halt    chan struct{}
	nodes   sync.WaitGroup // node loops
	stop    chan struct{}
	writers sync.WaitGroup // edge writers
	wg      sync.WaitGroup // readers and the control channel
	inbox   []chan sim.Envelope
	outbox  [][]sendLink // node -> its directions, aligned with g.Neighbors(node)
	lns     []net.Listener
	conns   []net.Conn
	dropped atomic.Int64
	frames  atomic.Int64

	// testWriteErr and testAfterListen are fault-injection hooks for the
	// regression tests (dead-writer settlement, Start-failure cleanup).
	// Only set before Start; nil in production.
	testWriteErr    func(me, peer int) error
	testAfterListen func()

	// Control channel: one listener per running cluster, any number of
	// probe connections. ctlMu guards the connection list (handlers
	// register concurrently with Stop closing them).
	ctlLn    net.Listener
	ctlMu    sync.Mutex
	ctlConns []net.Conn
}

// Dropped returns the number of messages dropped by full or dead
// outboxes.
func (c *Cluster) Dropped() int64 { return c.dropped.Load() }

// Sent returns the number of messages accepted onto outboxes so far.
// The counter accumulates across Stop/Start cycles — a restart never
// resets it, so drivers can report whole-run traffic.
func (c *Cluster) Sent() int64 {
	total, _ := c.board.Traffic()
	return total
}

// Traffic returns the messages accepted onto outboxes so far, in total
// and per kind (sim.Board.Traffic). Safe to call at any time.
func (c *Cluster) Traffic() (total int64, byKind map[string]int64) {
	return c.board.Traffic()
}

// FramesWritten returns the number of wire frames the edge writers have
// flushed so far (accumulating across restarts, like Sent). With
// batching off every message is one frame; FramesWritten/Sent is the
// coalescing figure of merit the tcp benchmark records.
func (c *Cluster) FramesWritten() int64 { return c.frames.Load() }

// Restarts returns how many times the cluster has been re-started after
// its first Start. The harness's tcp driver asserts this stays zero on
// converging runs: certificate-gated probing needs no stop-the-world
// inspections.
func (c *Cluster) Restarts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.starts > 1 {
		return c.starts - 1
	}
	return 0
}

// NewCluster builds the cluster. The factory contract matches
// sim.NewNetwork: called once per node in ID order.
func NewCluster(g *graph.Graph, factory func(id int, neighbors []int) sim.Process, cfg Config) *Cluster {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 2 * time.Millisecond
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.BatchMaxWait < 0 {
		cfg.BatchMaxWait = 0
	}
	n := g.N()
	c := &Cluster{g: g, cfg: cfg, procs: make([]sim.Process, n)}
	for id := 0; id < n; id++ {
		c.procs[id] = factory(id, g.Neighbors(id))
	}
	c.board = sim.NewBoard(c.procs, cfg.ActiveKinds)
	return c
}

// Process returns the process at node id. Only safe to call before Start
// or after Stop.
func (c *Cluster) Process(id int) sim.Process { return c.procs[id] }

// Start listens, dials every edge and launches the node loops. It
// returns once the whole mesh is connected.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return fmt.Errorf("netrun: already running")
	}
	n := c.g.N()
	c.halt = make(chan struct{})
	c.stop = make(chan struct{})
	c.starts++
	// Whatever active messages the previous phase left undelivered died
	// with its connections, so they are settled (lost), not in flight.
	// Counters are frozen while stopped, so this is race-free.
	c.board.Rebaseline()
	c.makeLinks()
	c.lns = make([]net.Listener, n)
	c.conns = nil

	addrs := make([]string, n)
	for id := 0; id < n; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.teardownLocked()
			return fmt.Errorf("netrun: listen node %d: %w", id, err)
		}
		c.lns[id] = ln
		addrs[id] = ln.Addr().String()
	}
	if c.testAfterListen != nil {
		c.testAfterListen()
	}

	// Side-channel control listener: probe clients query the cluster's
	// quiescence observations here while it runs.
	ctl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.teardownLocked()
		return fmt.Errorf("netrun: control listen: %w", err)
	}
	c.ctlLn = ctl
	c.ctlMu.Lock()
	c.ctlConns = nil
	c.ctlMu.Unlock()
	c.wg.Add(1)
	go c.serveControl(ctl, c.stop)

	// Accept side: each node expects one connection per lower-ID
	// neighbor; the dialer sends a hello naming itself. The hello reader
	// travels with the connection (bugfix): a bufio.Reader reads ahead,
	// so a second reader on the same conn would silently lose any frame
	// bytes this one buffered past the hello — rare at one frame per
	// message, near-certain once batching packs frames back-to-back.
	// A hello that names anything but a lower-ID neighbor not yet
	// connected fails Start (bugfix): its direction does not exist, or
	// already has a writer. So does a hello that does not arrive within
	// helloTimeout (bugfix): a silent peer held Start until it closed.
	type accepted struct {
		to   int
		conn net.Conn
		br   *bufio.Reader
		at   int // the dialer's position in to's neighbor list
		err  error
	}
	expect := c.g.M() // every edge is accepted once, by its higher end
	// Buffered to every expected connection (bugfix): a Start that fails
	// mid-dial takes the teardown path without draining acceptCh, and an
	// unbuffered send would strand accept goroutines — and the conns
	// they hold — forever (c.wg never knew them, so Stop could not help).
	acceptCh := make(chan accepted, expect)
	var acceptWG sync.WaitGroup
	for id := 0; id < n; id++ {
		want := 0
		for _, u := range c.g.Neighbors(id) {
			if u < id {
				want++
			}
		}
		if want == 0 {
			continue
		}
		acceptWG.Add(1)
		go func(id, want int) {
			defer acceptWG.Done()
			seen := make(map[int]bool, want)
			for k := 0; k < want; k++ {
				conn, err := c.lns[id].Accept()
				if err != nil {
					acceptCh <- accepted{to: id, err: err}
					return
				}
				br := bufio.NewReader(conn)
				// A failed set means a dead conn, which readHello reports.
				_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
				from, err := readHello(br)
				if err == nil {
					// Left armed, the deadline would end the edge reader.
					err = conn.SetReadDeadline(time.Time{})
				}
				// The connection's one search: the dialer's position in
				// id's neighbor list addresses both of its directions.
				at, isNbr := slices.BinarySearch(c.g.Neighbors(id), from)
				if err == nil && (from >= id || !isNbr || seen[from]) {
					err = fmt.Errorf("hello from %d: not an unconnected lower-ID neighbor of %d", from, id)
				}
				if err != nil {
					conn.Close()
					acceptCh <- accepted{to: id, err: err}
					return
				}
				seen[from] = true
				acceptCh <- accepted{to: id, conn: conn, br: br, at: at}
			}
		}(id, want)
	}

	// failStart cleans up a partially connected mesh: teardown closes
	// listeners (unblocking every accept goroutine) and started edges,
	// the wait guarantees all sends on the buffered channel happened,
	// and the drain closes accepted conns nobody will ever own.
	failStart := func() {
		c.teardownLocked()
		acceptWG.Wait()
		for {
			select {
			case a := <-acceptCh:
				if a.conn != nil {
					a.conn.Close()
				}
			default:
				return
			}
		}
	}

	// Dial side: the lower-ID endpoint of each edge dials the higher.
	for id := 0; id < n; id++ {
		for i, u := range c.g.Neighbors(id) {
			if u < id { // u dials id; we dial only our higher neighbors
				continue
			}
			conn, err := net.Dial("tcp", addrs[u])
			if err != nil {
				failStart()
				return fmt.Errorf("netrun: dial %d->%d: %w", id, u, err)
			}
			if _, err := conn.Write(appendHello(nil, id)); err != nil {
				conn.Close()
				failStart()
				return fmt.Errorf("netrun: hello %d->%d: %w", id, u, err)
			}
			c.conns = append(c.conns, conn)
			c.startEdge(id, i, conn, bufio.NewReader(conn))
		}
	}
	for k := 0; k < expect; k++ {
		a := <-acceptCh
		if a.err != nil {
			failStart()
			return fmt.Errorf("netrun: accept at %d: %w", a.to, a.err)
		}
		c.conns = append(c.conns, a.conn)
		c.startEdge(a.to, a.at, a.conn, a.br)
	}

	// Node loops.
	halt := c.halt
	for id := 0; id < n; id++ {
		ctx := sim.NewContext(id, c.g.Neighbors(id), c.send)
		c.nodes.Add(1)
		go func(id int) {
			defer c.nodes.Done()
			c.board.Loop(id, ctx, c.inbox[id], c.cfg.TickInterval, halt)
		}(id)
	}
	c.running = true
	return nil
}

// makeLinks builds a phase's inboxes and send directions. A direction's
// pending slice grows on demand, so a quiet phase allocates no buffers.
func (c *Cluster) makeLinks() {
	n := c.g.N()
	c.inbox = make([]chan sim.Envelope, n)
	c.outbox = make([][]sendLink, n)
	for id := 0; id < n; id++ {
		c.inbox[id] = make(chan sim.Envelope, inboxFrames)
		c.outbox[id] = make([]sendLink, len(c.g.Neighbors(id)))
		for i := range c.outbox[id] {
			c.outbox[id][i].wake = make(chan struct{}, 1)
		}
	}
}

// startEdge launches the writer (flushing me's direction toward its
// neighbor at position i per batch.go) and the reader (decoding that
// peer's frames into me's inbox) for one direction pair of an edge
// connection. The one position addresses both: me's outbox toward the
// peer, and the peer as the sender of every frame the reader delivers.
// br must be the connection's ONLY reader — the accept path hands over
// the one that already read the hello, because a fresh reader would
// lose whatever that one buffered ahead.
func (c *Cluster) startEdge(me, i int, conn net.Conn, br *bufio.Reader) {
	stop := c.stop
	peer := c.g.Neighbors(me)[i]
	link := &c.outbox[me][i]
	in := c.inbox[me]
	c.writers.Add(1)
	go func() { // writer: me -> peer
		defer c.writers.Done()
		c.writeLoop(me, peer, link, conn, stop)
	}()
	c.wg.Add(1)
	go func() { // reader: peer -> me
		defer c.wg.Done()
		c.readLoop(in, i, br, stop)
	}()
}

// probeReply is what the control channel answers a probe request
// (a sequence number) with: the cluster's current observation.
type probeReply struct {
	Seq uint64
	// Versions is the per-node quiescence-epoch vector (state versions,
	// or state hashes for processes that report none).
	Versions []uint64
	// Fingerprint is the combined state fingerprint (detect.Combine of
	// the published per-node hashes).
	Fingerprint uint64
	// ActiveSent and ActiveReceived are the active-kind message
	// counters; received includes messages settled as lost by restarts,
	// so the difference is the genuine in-flight deficit.
	ActiveSent     int64
	ActiveReceived int64
}

// probeReply builds one observation from the board's lock-free Sample.
func (c *Cluster) probeReply(seq uint64) probeReply {
	s := c.board.Sample()
	return probeReply{
		Seq:            seq,
		Versions:       s.Versions,
		Fingerprint:    s.Fingerprint,
		ActiveSent:     s.ActiveSent,
		ActiveReceived: s.ActiveReceived,
	}
}

// serveControl accepts probe connections until the listener closes and
// answers each request with the current observation.
func (c *Cluster) serveControl(ln net.Listener, stop chan struct{}) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Stop/teardown
		}
		c.ctlMu.Lock()
		select {
		case <-stop:
			// Stop already ran (or is closing conns): don't register a
			// connection nobody will close.
			c.ctlMu.Unlock()
			conn.Close()
			continue
		default:
		}
		c.ctlConns = append(c.ctlConns, conn)
		c.ctlMu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			// Close on handler exit so a client that sent garbage (or
			// half a request) is shed instead of left hanging on a reply
			// that will never come; the registry close in Stop is then a
			// harmless double close.
			defer conn.Close()
			br := bufio.NewReader(conn)
			var out []byte
			for {
				// Anything but a probe request drops the connection.
				seq, err := readProbeRequest(br)
				if err != nil {
					return // client gone, garbage or teardown
				}
				out = appendProbeReply(out[:0], c.probeReply(seq))
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}()
	}
}

// ControlAddr returns the control listener's address. Only meaningful
// while the cluster is running; empty otherwise.
func (c *Cluster) ControlAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running || c.ctlLn == nil {
		return ""
	}
	return c.ctlLn.Addr().String()
}

// ProbeConn is a client of a running cluster's control channel. It is
// the side channel the harness's tcp driver uses to watch for
// quiescence without stopping the cluster; one request/reply round trip
// per Sample. Not safe for concurrent use.
type ProbeConn struct {
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

// DialProbe connects to a cluster's control channel (ControlAddr).
func DialProbe(addr string) (*ProbeConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrun: dial control: %w", err)
	}
	return &ProbeConn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Sample fetches one quiescence observation, shaped for detect.Detector.
func (p *ProbeConn) Sample() (detect.Sample, error) {
	p.seq++
	if _, err := p.conn.Write(appendProbeRequest(nil, p.seq)); err != nil {
		return detect.Sample{}, fmt.Errorf("netrun: probe request: %w", err)
	}
	r, err := readProbeReply(p.br)
	if err != nil {
		return detect.Sample{}, fmt.Errorf("netrun: probe reply: %w", err)
	}
	if r.Seq != p.seq {
		return detect.Sample{}, fmt.Errorf("netrun: probe reply out of sequence: got %d want %d", r.Seq, p.seq)
	}
	return detect.Sample{
		Versions:       r.Versions,
		Fingerprint:    r.Fingerprint,
		ActiveSent:     r.ActiveSent,
		ActiveReceived: r.ActiveReceived,
	}, nil
}

// Close closes the control connection.
func (p *ProbeConn) Close() error { return p.conn.Close() }

// closeControlLocked shuts the control listener and every registered
// probe connection. Caller holds mu; close(stop) must already have
// happened so late registrations see the closed channel.
func (c *Cluster) closeControlLocked() {
	if c.ctlLn != nil {
		c.ctlLn.Close()
	}
	c.ctlMu.Lock()
	for _, conn := range c.ctlConns {
		conn.Close()
	}
	c.ctlConns = nil
	c.ctlMu.Unlock()
}

// stopDrainTimeout bounds the writers' final flush in Stop: a peer that
// stopped reading cannot hold Stop forever.
const stopDrainTimeout = time.Second

// Stop ends the phase and waits for every goroutine: the node loops
// halt first, then teardownLocked lets the edge writers flush their
// queues (readers keep draining the sockets and discard) under a drain
// deadline, and closes connections and listeners last. Node states
// remain inspectable and a new Start resumes.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running {
		return
	}
	close(c.halt)
	c.nodes.Wait()
	deadline := time.Now().Add(stopDrainTimeout)
	for _, conn := range c.conns {
		conn.SetWriteDeadline(deadline)
	}
	c.teardownLocked()
	c.running = false
}

// teardownLocked ends a phase once no node loop runs: it closes stop,
// waits for the edge writers to flush what is queued, closes the
// control channel, the listeners and the connections, then waits for
// the readers. Stop calls it after halting the node loops; a failed
// Start calls it before any node loop ran, so the writers have nothing
// to flush. Caller holds mu.
func (c *Cluster) teardownLocked() {
	close(c.stop)
	c.writers.Wait()
	c.closeControlLocked()
	for _, ln := range c.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, conn := range c.conns {
		conn.Close()
	}
	c.wg.Wait()
}
