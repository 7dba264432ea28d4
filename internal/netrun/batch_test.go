package netrun

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// pinger sends one numbered UpdateDist to every neighbor per tick: a
// minimal active-kind traffic source for transport-level tests (the
// protocol under test is the cluster itself, not MDST).
type pinger struct{ seq int }

func (p *pinger) Tick(ctx *sim.Context) {
	p.seq++
	for _, u := range ctx.Neighbors() {
		ctx.Send(u, core.UpdateDistMsg{Dist: p.seq})
	}
}
func (p *pinger) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {}

// --- Bugfix regression: hello reader handoff -----------------------------

// The accept side reads the hello and then hands the SAME bufio.Reader
// to startEdge. It reads ahead, so when the dialer's hello and its first
// frames arrive in one burst (here: one Write — exactly what the
// batching writer produces), a second reader on the conn would read
// from after the buffered bytes and lose every buffered frame. This
// test drives the handoff directly and fails by timeout under a
// two-reader accept path. Each frame must also reach the inbox as one
// envelope: its three messages together, in wire order, from the peer.
func TestHelloDecoderHandoffSurvivesBurst(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{})
	// Minimal Start plumbing for one edge direction (no node loops: the
	// inbox is inspected directly).
	c.stop = make(chan struct{})
	defer close(c.stop)
	c.makeLinks()

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

	// Dialer: hello + 5 frames of 3 messages back-to-back in ONE Write —
	// the burst the hello reader will buffer past the hello.
	const burst, perFrame = 5, 3
	wire := appendHello(nil, 1)
	for i := 0; i < burst; i++ {
		frame := make([]sim.Message, perFrame)
		for k := range frame {
			frame[k] = core.UpdateDistMsg{Dist: i*perFrame + k}
		}
		wire = appendFrame(wire, frame)
	}
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}

	// Accept path under test: read the hello, hand the SAME reader to
	// startEdge (the fix; a fresh bufio.NewReader(server) here loses the
	// buffered frames).
	br := bufio.NewReader(server)
	from, err := readHello(br)
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 {
		t.Fatalf("hello from %d, want 1", from)
	}
	c.startEdge(0, 0, server, br) // node 1 is node 0's neighbor at position 0

	for i := 0; i < burst; i++ {
		select {
		case env := <-c.inbox[0]:
			if env.At != 0 {
				t.Fatalf("frame %d delivered from position %d, want 0 (node 1)", i, env.At)
			}
			if len(env.Msgs) != perFrame {
				t.Fatalf("frame %d delivered as an envelope of %d messages, want %d", i, len(env.Msgs), perFrame)
			}
			for k, m := range env.Msgs {
				if got := m.(core.UpdateDistMsg).Dist; got != i*perFrame+k {
					t.Fatalf("frame %d message %d out of order: dist %d", i, k, got)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d of %d never arrived: the hello reader's buffered bytes were lost", i, burst)
		}
	}
}

// --- Bugfix regression: dead-writer deficit starvation -------------------

// A writer that dies mid-phase must not leave the Dijkstra–Scholten
// deficit permanently positive: sends to the dead direction count as
// dropped (never sent), and whatever the queue held — all counted sent —
// is settled as lost. The published deficit must therefore return to
// zero; before the fix it grows monotonically with every message queued
// onto the dead direction and the probe path can never certify.
func TestDeadWriterSettlesDeficit(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{
		TickInterval: time.Millisecond,
		ActiveKinds:  []string{core.KindUpdateDist},
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

	// Every goroutine Start launched must be gone.
	if !goroutinesBackTo(before) {
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

// goroutinesBackTo waits up to five seconds for the goroutine count to
// fall to before, giving the runtime a grace period to observe exits.
func goroutinesBackTo(before int) bool {
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if runtime.NumGoroutine() <= before {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// --- Bugfix regression: a hello from a stranger --------------------------

// The accept side must check that a hello names a lower-ID neighbor of
// the listening node that has not connected yet. Before the fix a hello
// naming a non-neighbor crashed the process (startEdge took a nil
// outbox, and its writer dereferenced it), and one naming a higher-ID
// neighbor or repeating a lower one put a second writer on a direction
// that already had one. A peer that connects and sends nothing used to
// block Start until that peer closed, which the hook's connection does
// only after Start returns; the hello read now times out after
// helloTimeout. Start must fail instead: an error naming both IDs (or
// the timeout), no panic, no leaked goroutine, and a following Start
// that runs.
func TestStartRejectsBogusHello(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		to, from int
		silent   bool // connect to node to and write no hello
	}{
		{"non-neighbor", graph.Path(3), 1, 7, false},
		{"higher-ID neighbor", graph.Path(3), 1, 2, false},
		// Ring(3): node 2 accepts 0 and 1. The bogus hello is first in
		// the backlog, so node 0's real dial is the repeat.
		{"repeated lower-ID neighbor", graph.Ring(3), 2, 0, false},
		{"silent peer", graph.Path(3), 1, 0, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(tc.g, func(id int, nbrs []int) sim.Process {
				return &pinger{}
			}, Config{TickInterval: time.Millisecond})
			var bogus net.Conn
			c.testAfterListen = func() {
				conn, err := net.Dial("tcp", c.lns[tc.to].Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				bogus = conn
				if tc.silent {
					return
				}
				if _, err := conn.Write(appendHello(nil, tc.from)); err != nil {
					t.Error(err)
				}
			}
			before := runtime.NumGoroutine()
			err := c.Start()
			if bogus != nil {
				bogus.Close()
			}
			if err == nil {
				c.Stop()
				t.Fatal("Start accepted a bogus hello")
			}
			want := fmt.Sprintf("hello from %d: not an unconnected lower-ID neighbor of %d", tc.from, tc.to)
			if tc.silent {
				want = "i/o timeout"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Start error %q does not contain %q", err, want)
			}
			if !goroutinesBackTo(before) {
				t.Fatalf("goroutines leaked by the rejected hello: %d before, %d after", before, runtime.NumGoroutine())
			}
			c.testAfterListen = nil
			if err := c.Start(); err != nil {
				t.Fatalf("cluster not restartable after the rejected hello: %v", err)
			}
			c.Stop()
		})
	}
}

// --- Wire format ---------------------------------------------------------

// writeWire runs one writer at the given batch size over msgs, all
// pending before it starts, and returns what it put on the wire and how
// many frames it counted.
func writeWire(t *testing.T, batchSize int, msgs []sim.Message) ([]byte, int64) {
	t.Helper()
	c := &Cluster{cfg: Config{BatchSize: batchSize}}
	link := &sendLink{pending: msgs, wake: make(chan struct{}, 1)}
	// A closed stop makes the writer flush what is pending and return.
	stop := make(chan struct{})
	close(stop)
	var wire bytes.Buffer
	c.writeLoop(3, 1, link, &wire, stop)
	return wire.Bytes(), c.FramesWritten()
}

// checkFrames decodes wire to its end and requires exactly the given
// frames: count and order of frames and of the messages in each.
func checkFrames(t *testing.T, wire []byte, want [][]sim.Message) {
	t.Helper()
	r := bytes.NewReader(wire)
	for i, msgs := range want {
		got, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("frame %d decoded %d messages, want %d", i, len(got), len(msgs))
		}
		for k, m := range got {
			if m.(core.UpdateDistMsg) != msgs[k].(core.UpdateDistMsg) {
				t.Fatalf("frame %d message %d decoded as %+v, want %+v", i, k, m, msgs[k])
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("wire held %d bytes past %d frames", r.Len(), len(want))
	}
}

// The frame encoding is pinned so the wire format cannot drift
// silently: every write is one frame (a count, then tagged messages) —
// one message per frame at batch size 1, the whole batch in one frame
// above it — and decodes with count and order intact.
func TestBatchWireFormatPinned(t *testing.T) {
	msgs := []sim.Message{
		core.UpdateDistMsg{Dist: 1},
		core.UpdateDistMsg{Dist: 2},
		core.UpdateDistMsg{Dist: 3},
	}
	for _, tc := range []struct {
		batch  int
		hex    string // count, then tagUpdateDist and the zigzag Dist per message
		frames [][]sim.Message
	}{
		{1, "010502" + "010504" + "010506", [][]sim.Message{msgs[:1], msgs[1:2], msgs[2:]}},
		{16, "03" + "0502" + "0504" + "0506", [][]sim.Message{msgs}},
	} {
		wire, frames := writeWire(t, tc.batch, msgs)
		if got := hex.EncodeToString(wire); got != tc.hex {
			t.Fatalf("batch=%d wire bytes drifted:\n got %s\nwant %s", tc.batch, got, tc.hex)
		}
		if frames != int64(len(tc.frames)) {
			t.Fatalf("batch=%d counted %d frames, want %d", tc.batch, frames, len(tc.frames))
		}
		checkFrames(t, wire, tc.frames)
	}
}

// A full direction must drop (not block) once outboxSize messages are
// pending, and a dead direction must drop at send; neither drop counts
// as sent.
func TestSendPathsWithBatching(t *testing.T) {
	g := graph.Path(2)
	c := NewCluster(g, func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{BatchSize: 4})
	c.makeLinks()
	// No writer is draining: the send past outboxSize overflows.
	for i := 0; i <= outboxSize; i++ {
		c.send(0, 0, core.UpdateDistMsg{Dist: i})
	}
	if got := c.Dropped(); got != 1 {
		t.Fatalf("overflow dropped %d messages, want 1", got)
	}
	if got := c.Sent(); got != outboxSize {
		t.Fatalf("sent %d, want %d", got, outboxSize)
	}
	// A dead link drops every send without touching the pending slice.
	link := &c.outbox[0][0]
	link.mu.Lock()
	link.dead = true
	link.mu.Unlock()
	c.send(0, 0, core.UpdateDistMsg{Dist: -1})
	if got := c.Dropped(); got != 2 {
		t.Fatalf("dead-link send dropped %d total, want 2", got)
	}
	if got := c.Sent(); got != outboxSize {
		t.Fatalf("dead-link send was counted sent (%d)", got)
	}
	if got := link.pendingLen(); got != outboxSize {
		t.Fatalf("dead-link send left %d pending, want %d", got, outboxSize)
	}
}

// frameSink is a writer's connection in the flush-policy test: it
// decodes every write as one whole frame and passes it on.
type frameSink struct {
	t      *testing.T
	frames chan []sim.Message
}

func (s frameSink) Write(p []byte) (int, error) {
	r := bytes.NewReader(p)
	msgs, err := readFrame(r, nil)
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d bytes past its frame", r.Len())
	}
	if err != nil {
		s.t.Errorf("a write is not one whole frame: %v", err)
		return 0, err
	}
	s.frames <- msgs
	return len(p), nil
}

// The writer's flush rule, at BatchSize 4: a frame leaves when it fills
// or its hold ends, and Stop flushes a partial one. Each row queues its
// first messages, starts the writer and lets it take their wake before
// sending the rest or stopping it. Holds are either 10 s, far beyond
// the 5 s the test waits for a frame, or 50 ms, which a timer never
// undercuts, so no row depends on the scheduler's timing.
func TestWriterFlushPolicy(t *testing.T) {
	const hold, within = 10 * time.Second, 5 * time.Second
	for _, tc := range []struct {
		name      string
		wait      time.Duration // BatchMaxWait
		queued    int           // sent before the writer starts
		sent      int           // sent after it started
		stop      bool          // Stop after sending
		notBefore time.Duration // no frame leaves sooner after the first send
		frames    []int         // the sizes of the frames written, in order
	}{
		{"a full frame skips the hold", hold, 1, 3, false, 0, []int{4}},
		{"a partial frame waits out the hold", 50 * time.Millisecond, 2, 0, false, 50 * time.Millisecond, []int{2}},
		{"stop flushes a partial frame", hold, 2, 0, true, 0, []int{2}},
		{"a backlog splits at BatchSize", hold, 6, 0, false, 0, []int{4, 2}},
		{"no hold sends what is queued at once", 0, 3, 0, false, 0, []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(graph.Path(2), func(id int, nbrs []int) sim.Process {
				return &pinger{}
			}, Config{BatchSize: 4, BatchMaxWait: tc.wait})
			c.makeLinks()
			dist := 0
			sendN := func(n int) {
				for ; n > 0; n-- {
					c.send(0, 0, core.UpdateDistMsg{Dist: dist})
					dist++
				}
			}
			first := time.Now()
			sendN(tc.queued)
			// One slot per message: room for every non-empty frame the
			// writer could write, so a wrong one shows instead of blocking.
			sink := frameSink{t, make(chan []sim.Message, tc.queued+tc.sent)}
			stop := make(chan struct{})
			done := make(chan struct{})
			link := &c.outbox[0][0]
			go func() {
				defer close(done)
				c.writeLoop(0, 1, link, sink, stop)
			}()
			// Once the writer took the wake of the first message, it holds
			// the frame (or flushes a full one); only then send the rest.
			for len(link.wake) != 0 {
				runtime.Gosched()
			}
			sendN(tc.sent)
			if tc.stop {
				close(stop)
			}
			next := 0
			for i, size := range tc.frames {
				select {
				case msgs := <-sink.frames:
					if i == 0 && time.Since(first) < tc.notBefore {
						t.Fatalf("frame left %v after the first send, before the %v hold", time.Since(first), tc.notBefore)
					}
					if len(msgs) != size {
						t.Fatalf("frame %d carries %d messages, want %d", i, len(msgs), size)
					}
					for _, m := range msgs {
						if got := m.(core.UpdateDistMsg).Dist; got != next {
							t.Fatalf("frame %d carries dist %d, want %d", i, got, next)
						}
						next++
					}
				case <-time.After(within):
					t.Fatalf("frame %d of %d not written within %v", i, len(tc.frames), within)
				}
			}
			if !tc.stop {
				close(stop)
			}
			<-done
			if len(sink.frames) != 0 {
				t.Fatalf("the writer wrote %d frames more than %v", len(sink.frames), tc.frames)
			}
			if got := c.FramesWritten(); got != int64(len(tc.frames)) {
				t.Fatalf("counted %d frames, want %d", got, len(tc.frames))
			}
		})
	}
}

// The transport's allocation gates. After warm-up one direction's send
// → take → encode → write cycle allocates nothing: the pending slice
// and the writer's spare alternate, and the encode buffer is reused.
// The reader's decode of a frame of k messages into a fresh slice
// allocates k+1 times: each message's interface box and the one slice
// the envelope carries.
func TestTransportAllocs(t *testing.T) {
	c := NewCluster(graph.Path(2), func(id int, nbrs []int) sim.Process {
		return &pinger{}
	}, Config{BatchSize: 16, ActiveKinds: []string{core.KindInfo}})
	c.makeLinks()
	link := &c.outbox[0][0]
	msgs := gossipFrame()
	var spare []sim.Message
	var buf []byte
	cycle := func() {
		for _, m := range msgs {
			c.send(0, 0, m)
		}
		var err error
		if spare, buf, err = c.flush(0, 1, link, io.Discard, spare, buf); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: the pending slice, the spare and the buffer grow once
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a send → take → encode → write cycle of %d messages allocates %.1f times, want 0", len(msgs), allocs)
	}

	wire := appendFrame(nil, msgs)
	r := bytes.NewReader(wire)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire)
		if _, err := readFrame(r, nil); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(len(msgs) + 1); allocs != want {
		t.Fatalf("decoding a frame of %d InfoMsg into a fresh slice allocates %.1f times, want %.0f", len(msgs), allocs, want)
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
