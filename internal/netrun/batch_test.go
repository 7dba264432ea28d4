package netrun

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// pingMsg is a minimal active-kind message for transport-level tests:
// the protocol under test is the cluster itself, not MDST.
type pingMsg struct{ Seq int }

func (pingMsg) Kind() string { return "ping" }
func (pingMsg) Size() int    { return 64 }

func init() { gob.Register(pingMsg{}) }

// pinger sends one ping to every neighbor per tick.
type pinger struct{ seq int }

func (p *pinger) Init(ctx *sim.Context) {}
func (p *pinger) Tick(ctx *sim.Context) {
	p.seq++
	for _, u := range ctx.Neighbors() {
		ctx.Send(u, pingMsg{Seq: p.seq})
	}
}
func (p *pinger) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {}

// --- Bugfix regression: gob stream handoff -------------------------------

// The accept side decodes the hello and then hands the SAME decoder to
// startEdge. A gob decoder buffers ahead, so when the dialer's hello and
// its first frames arrive in one burst (here: one buffered Write —
// exactly what the batching writer produces), a second decoder on the
// conn would read from after the buffered bytes and lose or corrupt
// every buffered frame. This test drives the handoff directly and
// fails by timeout under the old two-decoder accept path.
func TestHelloDecoderHandoffSurvivesBurst(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{})
	// Minimal Start plumbing for one edge direction (no node loops: the
	// inbox is inspected directly).
	c.stop = make(chan struct{})
	defer close(c.stop)
	c.inbox = []chan sim.Envelope{make(chan sim.Envelope, 64), make(chan sim.Envelope, 64)}
	c.outbox = []map[int]*sendLink{
		{1: &sendLink{q: make(chan sim.Message, 8)}},
		{0: &sendLink{q: make(chan sim.Message, 8)}},
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		acceptedCh <- conn
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acceptedCh
	defer server.Close()

	// Dialer: hello + 5 frames gob-encoded back-to-back into ONE
	// buffer, delivered in ONE Write — the burst the hello decoder will
	// buffer past the hello.
	const burst = 5
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(hello{From: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := enc.Encode(frame{From: 1, Msgs: []sim.Message{pingMsg{Seq: i}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Accept path under test: decode the hello, hand the SAME decoder to
	// startEdge (the fix; a fresh gob.NewDecoder(server) here reproduces
	// the lost-frame bug).
	dec := gob.NewDecoder(server)
	var h hello
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.From != 1 {
		t.Fatalf("hello from %d, want 1", h.From)
	}
	bw := bufio.NewWriterSize(server, frameBufSize)
	c.startEdge(0, 1, server, gob.NewEncoder(bw), bw, dec)

	for i := 0; i < burst; i++ {
		select {
		case env := <-c.inbox[0]:
			if got := env.Msg.(pingMsg).Seq; got != i {
				t.Fatalf("message %d out of order: seq %d", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d of %d never arrived: the hello decoder's buffered bytes were lost", i, burst)
		}
	}
}

// --- Bugfix regression: dead-writer deficit starvation -------------------

// A writer that dies mid-phase must not leave the Dijkstra–Scholten
// deficit permanently positive: sends to the dead direction count as
// dropped (never sent), and whatever the queue held — all counted sent —
// is settled as lost. The published deficit must therefore return to
// zero; before the fix it grows monotonically with every ping queued
// onto the dead direction and the probe path can never certify.
func TestDeadWriterSettlesDeficit(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{
		TickInterval: time.Millisecond,
		ActiveKinds:  []string{"ping"},
	})
	// Kill the 0->1 writer on its first frame (and every retry).
	injected := errors.New("injected encode failure")
	c.testWriteErr = func(me, peer int) error {
		if me == 0 && peer == 1 {
			return injected
		}
		return nil
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// The deficit can first read zero before any later send has met the
	// dead flag, so wait for both events.
	deadline := time.Now().Add(10 * time.Second)
	sawZero := false
	var last probeReply
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if !sawZero {
			last = c.probeReply(0)
			sawZero = last.ActiveSent > 0 && last.ActiveSent == last.ActiveReceived
		}
		if sawZero && c.Dropped() > 0 {
			break
		}
	}
	if !sawZero {
		t.Fatalf("published deficit never returned to zero: sent=%d received(+lost)=%d",
			last.ActiveSent, last.ActiveReceived)
	}
	if c.Dropped() == 0 {
		t.Fatal("no sends were counted dropped on the dead direction")
	}
}

// --- Bugfix regression: Start-failure goroutine leak ---------------------

// A Start that fails mid-dial must not strand accept goroutines: before
// the fix, goroutines that had already accepted a connection blocked
// forever on the unbuffered acceptCh send (and their conns leaked with
// them) because the error path never drains the channel and wg never
// knew them. Path(8) makes the failure late: listeners 1..6 accept
// their edge before the dial to the closed listener 7 fails.
func TestStartFailureDoesNotLeakAcceptGoroutines(t *testing.T) {
	g := graph.Path(8)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{TickInterval: time.Millisecond})
	c.testAfterListen = func() { c.lns[7].Close() }

	before := runtime.NumGoroutine()
	if err := c.Start(); err == nil {
		c.Stop()
		t.Fatal("Start succeeded despite the closed listener")
	}

	// Every goroutine Start launched must be gone; allow the runtime a
	// grace period to observe the exits.
	ok := false
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if runtime.NumGoroutine() <= before {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("goroutines leaked by failed Start: %d before, %d after", before, runtime.NumGoroutine())
	}

	// The teardown must leave the cluster restartable: a fresh Start
	// (listeners re-created, no hook) runs normally.
	c.testAfterListen = nil
	if err := c.Start(); err != nil {
		t.Fatalf("cluster not restartable after failed Start: %v", err)
	}
	c.Stop()
}

// --- Wire format ---------------------------------------------------------

// encodeWire renders what a writer puts on the wire for one coalesced
// batch.
func encodeWire(t *testing.T, me int, batch []sim.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := (&Cluster{}).writeFrame(gob.NewEncoder(bw), bw, me, 1, batch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkFrames decodes wire to its end and requires exactly the given
// frames from sender 3: count and order of frames and of the messages
// in each.
func checkFrames(t *testing.T, wire []byte, want [][]sim.Message) {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(wire))
	for i, msgs := range want {
		var f frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.From != 3 || len(f.Msgs) != len(msgs) {
			t.Fatalf("frame %d decoded as from=%d count=%d, want from=3 count=%d", i, f.From, len(f.Msgs), len(msgs))
		}
		for k, m := range f.Msgs {
			if m.(core.UpdateDistMsg) != msgs[k].(core.UpdateDistMsg) {
				t.Fatalf("frame %d message %d decoded as %+v, want %+v", i, k, m, msgs[k])
			}
		}
	}
	var extra frame
	if err := dec.Decode(&extra); err == nil {
		t.Fatalf("wire held more than %d frames", len(want))
	}
}

// The frame encoding is pinned so the wire format cannot drift
// silently: every write is one gob-encoded frame — one message per
// frame at batch size 1, the whole batch in one frame above it — and
// decodes with sender, count and order intact.
func TestBatchWireFormatPinned(t *testing.T) {
	msgs := []sim.Message{
		core.UpdateDistMsg{Dist: 1},
		core.UpdateDistMsg{Dist: 2},
		core.UpdateDistMsg{Dist: 3},
	}

	// Batch size 1: three writes through one encoder, as one writer
	// makes them, are byte for byte three one-message frames.
	var want bytes.Buffer
	enc := gob.NewEncoder(&want)
	for _, m := range msgs {
		if err := enc.Encode(frame{From: 3, Msgs: []sim.Message{m}}); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	bw := bufio.NewWriter(&got)
	e := gob.NewEncoder(bw)
	for _, m := range msgs {
		if err := (&Cluster{}).writeFrame(e, bw, 3, 1, []sim.Message{m}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("batch=1 wire bytes drifted from one frame per message:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}
	checkFrames(t, got.Bytes(), [][]sim.Message{msgs[:1], msgs[1:2], msgs[2:]})

	// Batched: one frame carrying the whole batch.
	wire := encodeWire(t, 3, msgs)
	want.Reset()
	if err := gob.NewEncoder(&want).Encode(frame{From: 3, Msgs: msgs}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, want.Bytes()) {
		t.Fatalf("batched wire bytes drifted from one frame per batch:\n got %x\nwant %x", wire, want.Bytes())
	}
	checkFrames(t, wire, [][]sim.Message{msgs})

	// The batch must cost less than one frame per message — the whole
	// point of coalescing (one From and one gob header per frame).
	if perMsg := len(encodeWire(t, 3, msgs[:1])); len(wire) >= 3*perMsg {
		t.Fatalf("batched frame (%dB) is not smaller than 3 one-message frames (3×%dB)", len(wire), perMsg)
	}
}

// --- End-to-end batching -------------------------------------------------

// A batched cluster must still converge through the certificate path —
// and actually coalesce: the frame count must come in well under the
// message count. This is the `make smoke` tcp-batch job.
func TestTCPBatchedWheelConverges(t *testing.T) {
	g := graph.Wheel(8)
	cfg := core.DefaultConfig(g.N())
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewNode(id, nbrs, cfg)
	}, Config{
		BatchSize:    16,
		BatchMaxWait: time.Millisecond,
		ActiveKinds:  core.ReductionKinds(),
	})
	ok, err := c.RunUntil(250*time.Millisecond, 40, func() bool {
		return core.CheckLegitimacy(g, coreNodes(c)).OK()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no legitimacy over batched TCP: %+v", core.CheckLegitimacy(g, coreNodes(c)))
	}
	sent, frames := c.Sent(), c.FramesWritten()
	if frames <= 0 || sent <= 0 {
		t.Fatalf("counters missing: sent=%d frames=%d", sent, frames)
	}
	if frames >= sent {
		t.Fatalf("batching never coalesced: %d frames for %d messages", frames, sent)
	}
	t.Logf("batched run: %d messages in %d frames (%.3f frames/message)",
		sent, frames, float64(frames)/float64(sent))
}

// A full outbox must still drop (not block) with the batching layer in
// place, and a dead link must drop at send.
func TestSendPathsWithBatching(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{BatchSize: 4, OutboxSize: 2})
	c.inbox = []chan sim.Envelope{make(chan sim.Envelope, 4), make(chan sim.Envelope, 4)}
	c.outbox = []map[int]*sendLink{
		{1: &sendLink{q: make(chan sim.Message, 2)}},
		{0: &sendLink{q: make(chan sim.Message, 2)}},
	}
	// No writer is draining: the third send overflows the queue.
	for i := 0; i < 3; i++ {
		c.send(0, 1, pingMsg{Seq: i})
	}
	if got := c.Dropped(); got != 1 {
		t.Fatalf("overflow dropped %d messages, want 1", got)
	}
	if got := c.Sent(); got != 2 {
		t.Fatalf("sent %d, want 2", got)
	}
	// A dead link drops every send without touching the queue.
	c.outbox[0][1].dead.Store(true)
	c.send(0, 1, pingMsg{Seq: 9})
	if got := c.Dropped(); got != 2 {
		t.Fatalf("dead-link send dropped %d total, want 2", got)
	}
	if got := c.Sent(); got != 2 {
		t.Fatalf("dead-link send was counted sent (%d)", got)
	}
}

// The config defaults: batch size 1, no frame hold time.
func TestBatchConfigDefaults(t *testing.T) {
	c := NewCluster(graph.Path(2), func(id int, nbrs []int) sim.Process { return &pinger{} }, Config{})
	if c.cfg.BatchSize != 1 {
		t.Fatalf("default BatchSize %d, want 1", c.cfg.BatchSize)
	}
	c2 := NewCluster(graph.Path(2), func(id int, nbrs []int) sim.Process { return &pinger{} },
		Config{BatchSize: 8, BatchMaxWait: -time.Second})
	if c2.cfg.BatchMaxWait != 0 {
		t.Fatalf("negative BatchMaxWait not normalized: %v", c2.cfg.BatchMaxWait)
	}
}
