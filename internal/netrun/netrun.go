// Package netrun executes the protocol over real TCP connections: each
// node is a goroutine with a listener on the loopback interface, each
// graph edge is one TCP connection carrying gob-encoded messages in
// both directions, and each direction is written by a single goroutine —
// so every link is a reliable FIFO channel, exactly the paper's §2
// communication model realized by an actual network stack.
//
// The wire carries one format: each per-direction writer sends frames
// of up to Config.BatchSize queued messages, flushed on batch-size or
// max-wait, so one node tick costs at most one syscall burst per
// neighbor (see batch.go); at batch size 1 (the default) every frame
// carries one message. Exactly one gob encoder and one gob decoder
// are attached to a connection for its lifetime — gob decoders read
// ahead through an internal buffer, so a second decoder on the same
// conn would silently lose buffered bytes (the hello handshake hands
// its decoder to the edge reader for exactly this reason).
//
// The runtime is restartable: Stop tears down every connection and
// listener but keeps the node states, and a subsequent Start re-dials.
// For a self-stabilizing protocol a restart is just more asynchrony
// (messages in flight at Stop are lost, which the protocol must — and
// does — tolerate), so tests can alternate run phases with safe
// state inspections until the configuration is legitimate.
//
// Convergence is detectable in-band, without stopping anything: every
// node runs sim.Board's loop, which posts its process's quiescence
// epoch (StateVersion) and state hash after each step, and Start opens
// a side-channel control listener serving those observations over a
// dedicated TCP connection (DialProbe / ProbeConn.Sample). A driver
// feeds the samples to a detect.Detector and only stops the cluster
// once a quiescence certificate is issued — which is how the harness's
// tcp driver avoids the stop-the-world restart-per-inspection loop
// entirely on converging runs (Restarts counts the re-starts it did
// need).
//
// The control channel speaks one request/reply pair over one
// connection: the quiescence probe (probeRequest/probeReply). The
// single-encoder/single-decoder-per-conn rule holds exactly as on the
// edge connections. A driver that also wants traffic counters reads
// them in-process (Cluster.Traffic, lock-free while the cluster runs),
// so the probe is the only thing the control channel carries.
package netrun

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// hello identifies the dialing endpoint of an edge connection.
type hello struct {
	From int
}

// Config controls a Cluster.
type Config struct {
	// TickInterval is the gossip period of each node's "do forever" loop
	// (default 2ms: TCP round trips are slower than channel sends).
	TickInterval time.Duration
	// OutboxSize is the per-direction send buffer in messages (default
	// 1024). A full outbox drops the newest message — over TCP the
	// protocol's periodic gossip refreshes any lost state, and dropping
	// beats deadlocking the node loop.
	OutboxSize int
	// ActiveKinds names the message kinds whose sent/received counters
	// feed the control channel's quiescence samples (the protocol's
	// reduction kinds: they must both drain and stop flowing at the
	// fixed point, while periodic gossip keeps going forever). Empty
	// disables the accounting; probes then report a zero deficit and
	// detection rests on version-vector and fingerprint stability.
	ActiveKinds []string
	// BatchSize caps how many messages one wire frame may carry
	// (default 1: one message per frame). Above 1 each per-direction
	// writer coalesces queued messages into multi-message frames — see
	// batch.go for the format and the flush policy.
	BatchSize int
	// BatchMaxWait bounds how long a partially filled frame may stay
	// open for further messages after its first (0: flush immediately
	// with whatever is already queued, so coalescing only amortizes
	// backlog and adds zero latency). Only meaningful above batch
	// size 1.
	BatchMaxWait time.Duration
}

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
	outbox  []map[int]*sendLink // node -> neighbor -> send direction
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

// Dropped returns the number of messages dropped by full outboxes.
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
	if cfg.OutboxSize <= 0 {
		cfg.OutboxSize = 1024
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

// Graph returns the topology.
func (c *Cluster) Graph() *graph.Graph { return c.g }

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
	c.inbox = make([]chan sim.Envelope, n)
	c.outbox = make([]map[int]*sendLink, n)
	c.lns = make([]net.Listener, n)
	c.conns = nil
	for id := 0; id < n; id++ {
		c.inbox[id] = make(chan sim.Envelope, 4096)
		c.outbox[id] = make(map[int]*sendLink, len(c.g.Neighbors(id)))
		for _, u := range c.g.Neighbors(id) {
			c.outbox[id][u] = &sendLink{q: make(chan sim.Message, c.cfg.OutboxSize)}
		}
	}

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
	// neighbor; the dialer sends a hello naming itself. The hello
	// decoder travels with the connection (bugfix): gob decoders read
	// ahead through an internal buffer, so a second decoder on the same
	// conn would silently lose any frame bytes this one buffered past
	// the hello — rare at one frame per message, near-certain once
	// batching packs frames back-to-back.
	type accepted struct {
		to   int
		conn net.Conn
		dec  *gob.Decoder
		from int
		err  error
	}
	expect := 0
	for id := 0; id < n; id++ {
		for _, u := range c.g.Neighbors(id) {
			if u < id {
				expect++
			}
		}
	}
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
			for k := 0; k < want; k++ {
				conn, err := c.lns[id].Accept()
				if err != nil {
					acceptCh <- accepted{to: id, err: err}
					return
				}
				dec := gob.NewDecoder(conn)
				var h hello
				if err := dec.Decode(&h); err != nil {
					conn.Close()
					acceptCh <- accepted{to: id, err: err}
					return
				}
				acceptCh <- accepted{to: id, conn: conn, dec: dec, from: h.From}
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
		for _, u := range c.g.Neighbors(id) {
			if u < id { // u dials id; we dial only our higher neighbors
				continue
			}
			conn, err := net.Dial("tcp", addrs[u])
			if err != nil {
				failStart()
				return fmt.Errorf("netrun: dial %d->%d: %w", id, u, err)
			}
			// One encoder per direction for the connection's lifetime:
			// it writes the hello and then every frame (a second encoder
			// would re-emit type definitions mid-stream). The bufio layer
			// turns each flushed frame into one syscall burst.
			bw := bufio.NewWriterSize(conn, frameBufSize)
			enc := gob.NewEncoder(bw)
			err = enc.Encode(hello{From: id})
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				conn.Close()
				failStart()
				return fmt.Errorf("netrun: hello %d->%d: %w", id, u, err)
			}
			c.conns = append(c.conns, conn)
			c.startEdge(id, u, conn, enc, bw, gob.NewDecoder(conn))
		}
	}
	for k := 0; k < expect; k++ {
		a := <-acceptCh
		if a.err != nil {
			failStart()
			return fmt.Errorf("netrun: accept at %d: %w", a.to, a.err)
		}
		c.conns = append(c.conns, a.conn)
		bw := bufio.NewWriterSize(a.conn, frameBufSize)
		c.startEdge(a.to, a.from, a.conn, gob.NewEncoder(bw), bw, a.dec)
	}

	// Node loops.
	halt := c.halt
	for id := 0; id < n; id++ {
		ctx := sim.NewContext(id, c.g.Neighbors(id), c.send)
		c.procs[id].Init(ctx)
		c.nodes.Add(1)
		go func(id int) {
			defer c.nodes.Done()
			c.board.Loop(id, ctx, c.inbox[id], c.cfg.TickInterval, halt)
		}(id)
	}
	c.running = true
	return nil
}

// startEdge launches the writer (draining me's outbox toward peer,
// coalescing per batch.go) and the reader (decoding the peer's frames
// into me's inbox) for one direction pair of an edge connection. enc
// and dec must be the connection's ONLY encoder/decoder — the accept
// path hands over the decoder that already read the hello, because a
// fresh decoder would lose whatever that one buffered ahead.
func (c *Cluster) startEdge(me, peer int, conn net.Conn, enc *gob.Encoder, bw *bufio.Writer, dec *gob.Decoder) {
	_ = conn // owned by Stop/teardown; all I/O goes through enc/bw/dec
	stop := c.stop
	link := c.outbox[me][peer]
	in := c.inbox[me]
	c.writers.Add(1)
	go func() { // writer: me -> peer
		defer c.writers.Done()
		c.writeLoop(me, peer, link, enc, bw, stop)
	}()
	c.wg.Add(1)
	go func() { // reader: peer -> me
		defer c.wg.Done()
		c.readLoop(in, dec, stop)
	}()
}

// send enqueues a message on the per-direction outbox; a full outbox
// drops the message (gossip repair handles the loss).
func (c *Cluster) send(from, to int, m sim.Message) {
	l, ok := c.outbox[from][to]
	if !ok {
		panic(fmt.Sprintf("netrun: node %d sent to non-neighbor %d", from, to))
	}
	if l.dead.Load() {
		// The writer died mid-phase (connection failure): drop — never
		// counted sent — so the active-kind deficit cannot be starved by
		// a direction nobody drains (bugfix; see killLink).
		c.dropped.Add(1)
		return
	}
	// Read the kind before the handoff: once m is on the outbox the
	// writer owns it (see sim.Message).
	kind := m.Kind()
	select {
	case l.q <- m:
		c.board.Sent(kind)
	default:
		// Dropped before entering any queue: never counted as sent, so
		// the active-kind deficit stays balanced.
		c.dropped.Add(1)
	}
}

// probeRequest/probeReply are the control channel's wire format: a
// client sends a sequenced request and gets the cluster's current
// observation back.
type probeRequest struct {
	Seq uint64
}

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
			dec := gob.NewDecoder(conn)
			enc := gob.NewEncoder(conn)
			for {
				// Anything that does not decode as a probeRequest drops
				// the connection.
				var req probeRequest
				if err := dec.Decode(&req); err != nil {
					return // client gone, garbage or teardown
				}
				if err := enc.Encode(c.probeReply(req.Seq)); err != nil {
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
	enc  *gob.Encoder
	dec  *gob.Decoder
	seq  uint64
}

// DialProbe connects to a cluster's control channel (ControlAddr).
func DialProbe(addr string) (*ProbeConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrun: dial control: %w", err)
	}
	return &ProbeConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Sample fetches one quiescence observation, shaped for detect.Detector.
func (p *ProbeConn) Sample() (detect.Sample, error) {
	p.seq++
	if err := p.enc.Encode(probeRequest{Seq: p.seq}); err != nil {
		return detect.Sample{}, fmt.Errorf("netrun: probe request: %w", err)
	}
	var r probeReply
	if err := p.dec.Decode(&r); err != nil {
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
// halt first, the edge writers then flush their queues (readers keep
// draining the sockets and discard), and connections and listeners are
// closed last. Node states remain inspectable and a new Start resumes.
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
	c.running = false
}

// teardownLocked releases partially created resources after a Start
// failure. Caller holds mu.
func (c *Cluster) teardownLocked() {
	if c.stop != nil {
		select {
		case <-c.stop:
		default:
			close(c.stop)
		}
	}
	c.closeControlLocked()
	for _, ln := range c.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, conn := range c.conns {
		conn.Close()
	}
	c.writers.Wait()
	c.wg.Wait()
}

// RunFor starts the cluster, lets it run for d, then stops it.
func (c *Cluster) RunFor(d time.Duration) error {
	if err := c.Start(); err != nil {
		return err
	}
	time.Sleep(d)
	c.Stop()
	return nil
}

// RunUntil alternates run phases of `phase` each with safe inspections
// of the stopped cluster until check returns true or maxPhases phases
// have run. It reports whether check ever succeeded.
func (c *Cluster) RunUntil(phase time.Duration, maxPhases int, check func() bool) (bool, error) {
	for k := 0; k < maxPhases; k++ {
		if err := c.RunFor(phase); err != nil {
			return false, err
		}
		if check() {
			return true, nil
		}
	}
	return false, nil
}
