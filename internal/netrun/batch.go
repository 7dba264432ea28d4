package netrun

// Per-link frame coalescing: the transport layer that lets the tcp
// backend keep its fast tick past n=128. One frame per message per
// edge direction saturates the socket layer at medium n with its
// syscall fan-out, keeps stale tokens in flight, and forced an 8ms tick
// where 2ms should do. Here a per-direction writer drains its outbox
// into multi-message frames: flush on batch-size or max-wait, one
// conn.Write per frame, so one node tick costs at most one syscall per
// neighbor.
//
// Every write is one frame of up to Config.BatchSize queued messages
// (codec.go has the format), so at batch size 1 each frame carries one
// message. The reader unpacks frames in order, preserving the
// reliable-FIFO link abstraction. The frame bytes are pinned by
// TestBatchWireFormatPinned.
//
// Exactly one bufio.Reader reads a connection for its whole lifetime.
// It reads ahead, so a second reader on the same conn silently loses
// whatever its predecessor buffered — harmless-looking at one frame per
// message, fatal once frames pack back-to-back (see startEdge and the
// hello handoff in Start).

import (
	"bufio"
	"io"
	"sync/atomic"
	"time"

	"mdst/internal/sim"
)

// sendLink is one direction of an edge: the outbox queue plus the dead
// flag its writer raises when the connection fails mid-phase. A dead
// link drops at send (never counted sent), so nothing accumulates on a
// queue nobody drains.
type sendLink struct {
	q    chan sim.Message
	dead atomic.Bool
}

// writeLoop drains link.q toward peer, one frame per iteration, each
// encoded into one reused buffer and written with one call. The first
// message of a frame is taken blocking; the rest coalesce per
// collectBatch. A write error is a mid-phase link death: killLink
// settles the undeliverable messages (bugfix — they were counted sent,
// so leaving them queued would hold the published Dijkstra–Scholten
// deficit positive forever and starve the certificate path).
func (c *Cluster) writeLoop(me, peer int, link *sendLink, w io.Writer, stop chan struct{}) {
	batch := make([]sim.Message, 0, c.cfg.BatchSize)
	var buf []byte
	var hold *time.Timer // the frame hold, re-armed for every frame that waits
	if c.cfg.BatchMaxWait > 0 {
		hold = time.NewTimer(c.cfg.BatchMaxWait)
		stopTimer(hold)
		defer hold.Stop()
	}
	for {
		batch = batch[:0]
		select {
		case <-stop:
			// Stop closes stop only after the node loops halted, so the
			// queue is final: flush it before exiting.
			select {
			case m := <-link.q:
				batch = append(batch, m)
			default:
				return
			}
		case m := <-link.q:
			batch = append(batch, m)
		}
		batch = c.collectBatch(link, batch, hold, stop)
		buf = appendFrame(buf[:0], batch)
		if err := c.writeFrame(w, me, peer, buf); err != nil {
			c.killLink(link, batch, stop)
			return
		}
		c.frames.Add(1)
	}
}

// collectBatch fills a started batch up to Config.BatchSize: a greedy
// pass first takes whatever is already queued (free coalescing — under
// backlog this alone packs full frames with zero added latency), then a
// positive BatchMaxWait keeps the frame open for stragglers until hold
// fires.
func (c *Cluster) collectBatch(link *sendLink, batch []sim.Message, hold *time.Timer, stop chan struct{}) []sim.Message {
	size := c.cfg.BatchSize
	for len(batch) < size {
		select {
		case m := <-link.q:
			batch = append(batch, m)
			continue
		default:
		}
		break
	}
	if len(batch) >= size || hold == nil {
		return batch
	}
	hold.Reset(c.cfg.BatchMaxWait)
	defer stopTimer(hold)
	for len(batch) < size {
		select {
		case <-stop:
			return batch
		case m := <-link.q:
			batch = append(batch, m)
		case <-hold.C:
			return batch
		}
	}
	return batch
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

// killLink handles a writer death mid-phase (bugfix): the direction is
// marked dead so send drops instead of enqueueing, the frame that
// failed and everything still queued are settled as lost (they were
// counted sent; settling keeps the published deficit able to reach
// zero), and the loop keeps settling stragglers that raced past the
// dead check until the phase stops — so no message is ever both counted
// sent and left un-settled.
func (c *Cluster) killLink(link *sendLink, pending []sim.Message, stop chan struct{}) {
	link.dead.Store(true)
	for _, m := range pending {
		c.board.Lost(m.Kind())
	}
	for {
		select {
		case m := <-link.q:
			c.board.Lost(m.Kind())
		case <-stop:
			return
		}
	}
}

// readLoop decodes the peer's stream into me's inbox, unpacking
// frames in order (the link stays reliable FIFO: frame order is socket
// order, in-frame order is slice order). A connection carries one
// sender, so every message is from peer. Once stop is closed it keeps
// reading until the connection closes but discards what it decodes, so
// the peer's writer can always flush its final queue. A frame that does
// not decode ends the reader, as the connection's end does.
func (c *Cluster) readLoop(in chan sim.Envelope, peer int, br *bufio.Reader, stop chan struct{}) {
	var msgs []sim.Message
	for {
		var err error
		if msgs, err = readFrame(br, msgs); err != nil {
			return // EOF, teardown or a malformed frame
		}
		for _, m := range msgs {
			select {
			case <-stop:
			case in <- sim.Envelope{From: peer, Msg: m}:
			}
		}
	}
}
