package netrun

// The edge transport: how one direction of an edge carries messages
// from the sending node's loop to the receiving node's loop. The unit
// at every goroutine hop is the frame, not the message.
//
// Send side. Each direction has a sendLink: a mutex-guarded pending
// slice and a one-slot wake channel, addressed by the peer's position
// in the sender's neighbor list. Cluster.send appends to the slice
// and wakes the direction's writer only when a frame opens (the first
// pending message) or fills (the BatchSize-th); it drops at outboxSize
// or on a dead link. The woken writer holds a partial frame open for at
// most Config.BatchMaxWait on its one re-armed timer (not at all at
// wait 0), takes everything pending in one swap and writes it as
// frames of at most BatchSize messages, one conn.Write each. One node
// tick thus costs at most one syscall per neighbor, and a frame of k
// messages wakes its writer about twice instead of k+1 times. Stop
// flushes whatever is still pending.
//
// Receive side. The direction's reader decodes each frame into a fresh
// slice and hands it to the receiving node's inbox as one sim.Envelope,
// stamped with the sender's position the connection was started with,
// whose messages sim.Board.Loop receives in order. Frame order is
// socket order and in-frame order is slice order, so the link stays
// reliable FIFO.
//
// codec.go has the frame format, and TestBatchWireFormatPinned pins its
// bytes. Exactly one bufio.Reader reads a connection for its whole
// lifetime. It reads ahead, so a second reader on the same conn silently
// loses whatever its predecessor buffered — harmless-looking at one
// frame per message, fatal once frames pack back-to-back (see startEdge
// and the hello handoff in Start).

import (
	"bufio"
	"io"
	"sync"
	"time"

	"mdst/internal/sim"
)

// sendLink is one direction of an edge: the messages queued for its
// writer and the dead flag its writer raises when the connection fails
// mid-phase. mu guards both, so a message is either appended before the
// link dies (and settled by killLink) or dropped at send (never counted
// sent).
type sendLink struct {
	mu      sync.Mutex
	pending []sim.Message // in send order
	dead    bool
	wake    chan struct{} // one slot: a frame opened or filled
}

// send appends a message to the pending slice of node from's direction
// toward its neighbor at position i (sim.Context.SendAt checked i) and
// wakes its writer when the message opens a frame or fills one. A full
// or dead direction drops the message (gossip repair handles the loss).
func (c *Cluster) send(from, i int, m sim.Message) {
	l := &c.outbox[from][i]
	// Read the kind before the handoff: once m is pending the writer
	// owns it (see sim.Message).
	kind := m.Kind()
	l.mu.Lock()
	if l.dead || len(l.pending) >= outboxSize {
		l.mu.Unlock()
		// Dropped before entering any queue: never counted sent, so the
		// active-kind deficit stays balanced. A dead direction's writer
		// died mid-phase (see killLink); nothing drains it.
		c.dropped.Add(1)
		return
	}
	l.pending = append(l.pending, m)
	// Counted under the lock, so the writer cannot take m, nor killLink
	// settle it, before it counts as sent.
	c.board.Sent(kind)
	k := len(l.pending)
	l.mu.Unlock()
	if k == 1 || k == c.cfg.BatchSize {
		select {
		case l.wake <- struct{}{}:
		default: // a wake is already waiting for the writer
		}
	}
}

// pendingLen returns how many messages wait for the writer.
func (l *sendLink) pendingLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// take swaps the pending messages out for spare, emptied, so the writer
// and the senders alternate two slices and a steady flow allocates
// nothing.
func (l *sendLink) take(spare []sim.Message) []sim.Message {
	clear(spare) // the messages were written; keep nothing reachable
	l.mu.Lock()
	defer l.mu.Unlock()
	batch := l.pending
	l.pending = spare[:0]
	return batch
}

// writeLoop is the writer of one direction: it sleeps until a frame
// opens, holds it for BatchMaxWait unless it fills, and flushes. Stop
// closes stop only after the node loops halted, so what is pending then
// is final: the writer flushes it and exits. A write error kills the
// link and ends the writer.
func (c *Cluster) writeLoop(me, peer int, link *sendLink, w io.Writer, stop chan struct{}) {
	size, wait := c.cfg.BatchSize, c.cfg.BatchMaxWait
	var hold *time.Timer
	if wait > 0 {
		hold = time.NewTimer(wait)
		stopTimer(hold)
		defer hold.Stop()
	}
	var spare []sim.Message
	var buf []byte
	for {
		final := false
		select {
		case <-stop:
			final = true
		case <-link.wake:
			n := link.pendingLen()
			if n == 0 {
				continue // a stale wake: its frame already left
			}
			if n < size && hold != nil {
				holdFrame(link, size, hold, wait, stop)
			}
		}
		var err error
		if spare, buf, err = c.flush(me, peer, link, w, spare, buf); err != nil || final {
			return
		}
	}
}

// holdFrame keeps a partial frame open until it fills, hold fires after
// wait, or stop closes. The timer starts after the frame's first
// message was queued, so a partial frame never leaves before wait.
func holdFrame(link *sendLink, size int, hold *time.Timer, wait time.Duration, stop chan struct{}) {
	hold.Reset(wait)
	defer stopTimer(hold)
	for link.pendingLen() < size {
		select {
		case <-link.wake:
		case <-hold.C:
			return
		case <-stop:
			return
		}
	}
}

// stopTimer stops t and drains a tick it already delivered, so the next
// Reset starts clean under the pre-Go 1.23 timer semantics this module
// (go 1.21) runs with.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// flush takes everything pending on link and writes it to w as frames
// of at most BatchSize messages, one write each. spare is the slice the
// previous flush took and buf the encode buffer; flush returns both for
// the next call. A failed write kills the link.
func (c *Cluster) flush(me, peer int, link *sendLink, w io.Writer, spare []sim.Message, buf []byte) ([]sim.Message, []byte, error) {
	batch := link.take(spare)
	for i := 0; i < len(batch); {
		k := min(len(batch)-i, c.cfg.BatchSize)
		buf = appendFrame(buf[:0], batch[i:i+k])
		if err := c.writeFrame(w, me, peer, buf); err != nil {
			c.killLink(link, batch[i:])
			return batch, buf, err
		}
		c.frames.Add(1)
		i += k
	}
	return batch, buf, nil
}

// writeFrame writes one encoded frame in a single call.
func (c *Cluster) writeFrame(w io.Writer, me, peer int, frame []byte) error {
	if c.testWriteErr != nil {
		if err := c.testWriteErr(me, peer); err != nil {
			return err
		}
	}
	_, err := w.Write(frame)
	return err
}

// killLink handles a writer death mid-phase (bugfix): the messages of
// the frame that failed and of every frame after it are settled as
// lost, and so, under the link's lock, is everything still pending as
// the link is marked dead. They were counted sent, and settling keeps
// the published Dijkstra–Scholten deficit able to reach zero; a send
// after the mark drops without being counted, so no message is ever
// both counted sent and left unsettled.
func (c *Cluster) killLink(link *sendLink, unsent []sim.Message) {
	for _, m := range unsent {
		c.board.Lost(m.Kind())
	}
	link.mu.Lock()
	defer link.mu.Unlock()
	link.dead = true
	for _, m := range link.pending {
		c.board.Lost(m.Kind())
	}
	link.pending = nil
}

// readLoop decodes the peer's stream into me's inbox, one envelope per
// frame. A connection carries one sender, so every frame is from the
// peer, which sits at position at of me's neighbor list. Once stop is
// closed it keeps reading until the connection closes but discards what
// it decodes, so the peer's writer can always flush its final frames. A
// frame that does not decode ends the reader, as the connection's end
// does.
func (c *Cluster) readLoop(in chan<- sim.Envelope, at int, br *bufio.Reader, stop chan struct{}) {
	for {
		msgs, err := readFrame(br, nil)
		if err != nil {
			return // EOF, teardown or a malformed frame
		}
		select {
		case <-stop:
		case in <- sim.Envelope{At: at, Msgs: msgs}:
		}
	}
}
