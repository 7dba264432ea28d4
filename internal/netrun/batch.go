package netrun

// Per-link frame coalescing: the transport layer that lets the tcp
// backend keep its fast tick past n=128. The pre-batching stream wrote
// one gob frame per message per edge direction — at medium n the
// resulting syscall fan-out saturates the socket layer, keeps stale
// tokens in flight, and forced an 8ms tick where 2ms should do. Here a
// per-direction writer drains its outbox into multi-message frames:
// flush on batch-size or max-wait, bufio-backed so one frame is one
// syscall burst, so one node tick costs at most one burst per neighbor.
//
// Wire format: with Config.BatchSize <= 1 every message travels as its
// own envelope — byte-identical to the pre-batching stream (pinned by
// TestBatchWireFormatPinned). Above 1 the writer packs up to BatchSize
// queued messages into one frame (gob encodes the Msgs slice with a
// leading count — the count prefix of the batch format) and the reader
// unpacks it in order, preserving the reliable-FIFO link abstraction.
// Both endpoints of a cluster share one Config, so the two formats
// never mix on a wire.
//
// Exactly one gob encoder and one gob decoder touch a connection for
// its whole lifetime. Decoders read ahead through an internal buffer,
// so a second decoder on the same conn silently loses whatever its
// predecessor buffered — harmless-looking at one frame per message,
// fatal once frames pack back-to-back (see startEdge and the hello
// handoff in Start).

import (
	"bufio"
	"encoding/gob"
	"sync/atomic"
	"time"

	"mdst/internal/sim"
)

// frame is the batched wire format: all Msgs share one From, so the
// per-message envelope overhead is paid once per frame.
type frame struct {
	From int
	Msgs []sim.Message
}

// sendLink is one direction of an edge: the outbox queue plus the dead
// flag its writer raises when the connection fails mid-phase. A dead
// link drops at send (never counted sent), so nothing accumulates on a
// queue nobody drains.
type sendLink struct {
	q    chan sim.Message
	dead atomic.Bool
}

// frameBufSize backs each direction's bufio.Writer: large enough that a
// full frame of gossip flushes in one Write.
const frameBufSize = 32 * 1024

// writeLoop drains link.q toward peer, one frame per iteration. The
// first message of a frame is taken blocking; above batch size 1 the
// rest coalesce per collectBatch. A write error is a mid-phase link
// death: killLink settles the undeliverable messages (bugfix — they
// were counted sent, so leaving them queued would hold the published
// Dijkstra–Scholten deficit positive forever and starve the
// certificate path).
func (c *Cluster) writeLoop(me, peer int, link *sendLink, enc *gob.Encoder, bw *bufio.Writer, stop chan struct{}) {
	batch := make([]sim.Message, 0, c.cfg.BatchSize)
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
		if c.cfg.BatchSize > 1 {
			batch = c.collectBatch(link, batch, stop)
		}
		if err := c.writeFrame(enc, bw, me, peer, batch); err != nil {
			c.killLink(link, batch, stop)
			return
		}
		c.frames.Add(1)
	}
}

// collectBatch fills a started batch up to Config.BatchSize: a greedy
// pass first takes whatever is already queued (free coalescing — under
// backlog this alone packs full frames with zero added latency), then a
// positive BatchMaxWait keeps the frame open for stragglers until the
// timer fires.
func (c *Cluster) collectBatch(link *sendLink, batch []sim.Message, stop chan struct{}) []sim.Message {
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
	if len(batch) >= size || c.cfg.BatchMaxWait <= 0 {
		return batch
	}
	timer := time.NewTimer(c.cfg.BatchMaxWait)
	defer timer.Stop()
	for len(batch) < size {
		select {
		case <-stop:
			return batch
		case m := <-link.q:
			batch = append(batch, m)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// writeFrame encodes one coalesced batch and flushes it in a single
// syscall burst. Batch size 1 keeps the pre-batching wire format — one
// envelope per message — so the default is byte-compatible with every
// stream written before the batching layer existed.
func (c *Cluster) writeFrame(enc *gob.Encoder, bw *bufio.Writer, me, peer int, batch []sim.Message) error {
	if c.testWriteErr != nil {
		if err := c.testWriteErr(me, peer); err != nil {
			return err
		}
	}
	if c.cfg.BatchSize > 1 {
		if err := enc.Encode(frame{From: me, Msgs: batch}); err != nil {
			return err
		}
	} else {
		for _, m := range batch {
			if err := enc.Encode(envelope{From: me, Msg: m}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
		c.settleLost(m)
	}
	for {
		select {
		case m := <-link.q:
			c.settleLost(m)
		case <-stop:
			return
		}
	}
}

// settleLost counts one undeliverable active-kind message as settled.
// Lost messages join activeLost (not activeRecv): Start's re-baseline
// overwrites activeLost with the full sent-received gap, so the two
// accountings agree across restarts.
func (c *Cluster) settleLost(m sim.Message) {
	if c.isActive(m) {
		c.activeLost.Add(1)
	}
}

// readLoop decodes the peer's stream into me's inbox, unpacking batch
// frames in order (the link stays reliable FIFO: frame order is socket
// order, in-frame order is slice order). Once stop is closed it keeps
// reading until the connection closes but discards what it decodes, so
// the peer's writer can always flush its final queue.
func (c *Cluster) readLoop(in chan envelope, dec *gob.Decoder, stop chan struct{}) {
	deliver := func(env envelope) {
		select {
		case <-stop:
		case in <- env:
		}
	}
	if c.cfg.BatchSize > 1 {
		for {
			var f frame
			if err := dec.Decode(&f); err != nil {
				return // EOF or teardown
			}
			for _, m := range f.Msgs {
				deliver(envelope{From: f.From, Msg: m})
			}
		}
	}
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return // EOF or teardown
		}
		deliver(env)
	}
}
