package netrun

// The wire codec: the only place that knows the bytes netrun puts on a
// socket. Integers are varints, so a message costs about as many bytes
// as its O(log n)-bit words (Size) suggest.
//
//   - Message: a one-byte tag naming one of core's eight message types,
//     then its fields in declaration order. An int is a zigzag varint, a
//     bool one byte (0 or 1), a graph.Edge its U then V, and a slice a
//     uvarint length followed by its elements.
//   - Frame: a uvarint message count, then the messages. The sender is
//     not on the wire: each direction of a connection has one sender,
//     which the reader knows from the hello or from whom it dialed.
//   - Hello: the dialer's node ID as a uvarint, once per connection.
//   - Probe request: tagProbe, then the uvarint Seq.
//   - Probe reply: the uvarint Seq, the version vector as a slice of
//     uvarints, the 8-byte little-endian fingerprint, then the
//     active-kind sent and received counters as zigzag varints.
//
// Decoding rejects an unknown tag, a bool byte other than 0 or 1,
// truncated input and a length above maxWireLen. Slices inside a
// message grow by append from a small capacity, so what a forged length
// allocates grows with the bytes that actually follow it, not with the
// length; a frame's message slice is sized to its count up front, but
// to at most framePrealloc messages. A nil or empty slice decodes as
// nil.

import (
	"encoding/binary"
	"fmt"
	"io"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Message tags. Zero is no tag, so a zeroed byte never decodes.
const (
	tagInfo byte = iota + 1
	tagSearch
	tagReverse
	tagDeblock
	tagUpdateDist
	tagRemove
	tagBack
	tagReverseAux
	// tagProbe opens a control-channel request.
	tagProbe
)

// maxWireLen caps every length prefix: frame counts, paths, node lists
// and version vectors are all bounded by the cluster size or the batch
// size, far below it.
const maxWireLen = 1 << 20

// initialCap is the capacity a decoded slice starts from before it
// grows by append.
const initialCap = 16

// framePrealloc caps the capacity a frame's count reserves: a frame of
// up to that many messages decodes into one slice of its exact size,
// and a forged count reserves at most 16 KB before the missing bytes
// fail it.
const framePrealloc = 1024

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendEdge(b []byte, e graph.Edge) []byte {
	return appendInt(appendInt(b, e.U), e.V)
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendInt(b, v)
	}
	return b
}

// appendMsg appends one tagged message. A type without a tag is a
// programming error, like a send to a non-neighbor, so it panics.
func appendMsg(b []byte, m sim.Message) []byte {
	switch m := m.(type) {
	case core.InfoMsg:
		b = append(b, tagInfo)
		b = appendInt(b, m.Root)
		b = appendInt(b, m.Parent)
		b = appendInt(b, m.Distance)
		b = appendInt(b, m.Dmax)
		b = appendInt(b, m.Submax)
		b = appendInt(b, m.Deg)
		return appendBool(b, m.Color)
	case *core.SearchMsg:
		b = append(b, tagSearch)
		b = appendEdge(b, m.Init)
		b = appendInt(b, m.Block)
		b = appendInt(b, m.TTL)
		b = binary.AppendUvarint(b, uint64(len(m.Path)))
		for _, e := range m.Path {
			b = appendInt(b, e.Node)
			b = appendInt(b, e.Deg)
			b = appendInt(b, e.Parent)
			b = appendInt(b, e.Cursor)
		}
		return b
	case core.ReverseMsg:
		b = append(b, tagReverse)
		b = appendEdge(b, m.Init)
		b = appendInt(b, m.DegMax)
		b = appendInt(b, m.TargetNode)
		b = appendInt(b, m.TargetDeg)
		b = appendInts(b, m.Nodes)
		return appendInt(b, m.Dist)
	case core.DeblockMsg:
		b = append(b, tagDeblock)
		b = appendInt(b, m.Block)
		return appendInt(b, m.TTL)
	case core.UpdateDistMsg:
		b = append(b, tagUpdateDist)
		return appendInt(b, m.Dist)
	case core.RemoveMsg:
		b = append(b, tagRemove)
		b = appendEdge(b, m.Init)
		b = appendInt(b, m.DegMax)
		b = appendEdge(b, m.Target)
		b = appendInt(b, m.WDeg)
		b = appendInts(b, m.Path)
		b = appendInt(b, m.Pos)
		return appendBool(b, m.Reorient)
	case core.BackMsg:
		b = append(b, tagBack)
		b = appendEdge(b, m.Init)
		b = appendInts(b, m.Path)
		return appendInt(b, m.Pos)
	case core.ReverseAuxMsg:
		b = append(b, tagReverseAux)
		return appendInt(b, m.Target)
	default:
		panic(fmt.Sprintf("netrun: message type %T has no wire tag", m))
	}
}

// appendFrame appends one frame carrying msgs.
func appendFrame(b []byte, msgs []sim.Message) []byte {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = appendMsg(b, m)
	}
	return b
}

// appendHello appends the dialer's hello.
func appendHello(b []byte, from int) []byte { return binary.AppendUvarint(b, uint64(from)) }

// appendProbeRequest appends one control-channel request.
func appendProbeRequest(b []byte, seq uint64) []byte {
	return binary.AppendUvarint(append(b, tagProbe), seq)
}

// appendProbeReply appends one control-channel reply.
func appendProbeReply(b []byte, r probeReply) []byte {
	b = binary.AppendUvarint(b, r.Seq)
	b = binary.AppendUvarint(b, uint64(len(r.Versions)))
	for _, v := range r.Versions {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, r.Fingerprint)
	b = binary.AppendVarint(b, r.ActiveSent)
	return binary.AppendVarint(b, r.ActiveReceived)
}

// wireReader decodes fields from a byte stream. The first error sticks
// and later reads return zero values, so a decoder reads every field and
// checks err once.
type wireReader struct {
	r   io.ByteReader
	err error
}

func (d *wireReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *wireReader) byte1() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.fail(err)
	return b
}

func (d *wireReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return v
}

func (d *wireReader) varint64() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.fail(err)
	return v
}

func (d *wireReader) varint() int { return int(d.varint64()) }

func (d *wireReader) flag() bool {
	switch b := d.byte1(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("netrun: bool byte %#x", b))
		return false
	}
}

// length reads a length prefix, capped at maxWireLen.
func (d *wireReader) length() int {
	n := d.uvarint()
	if n > maxWireLen {
		d.fail(fmt.Errorf("netrun: length %d over the cap %d", n, maxWireLen))
		return 0
	}
	return int(n)
}

func (d *wireReader) edge() graph.Edge { return graph.Edge{U: d.varint(), V: d.varint()} }

func (d *wireReader) pathEntry() core.PathEntry {
	return core.PathEntry{Node: d.varint(), Deg: d.varint(), Parent: d.varint(), Cursor: d.varint()}
}

// readSlice reads a length-prefixed slice of elem values.
func readSlice[T any](d *wireReader, elem func() T) []T {
	n := d.length()
	if n == 0 {
		return nil
	}
	s := make([]T, 0, min(n, initialCap))
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, elem())
	}
	return s
}

// msg decodes one tagged message. Field reads in a composite literal
// run left to right, the order appendMsg writes them in.
func (d *wireReader) msg() sim.Message {
	switch tag := d.byte1(); tag {
	case tagInfo:
		return core.InfoMsg{Root: d.varint(), Parent: d.varint(), Distance: d.varint(),
			Dmax: d.varint(), Submax: d.varint(), Deg: d.varint(), Color: d.flag()}
	case tagSearch:
		return &core.SearchMsg{Init: d.edge(), Block: d.varint(), TTL: d.varint(),
			Path: readSlice(d, d.pathEntry)}
	case tagReverse:
		return core.ReverseMsg{Init: d.edge(), DegMax: d.varint(), TargetNode: d.varint(),
			TargetDeg: d.varint(), Nodes: readSlice(d, d.varint), Dist: d.varint()}
	case tagDeblock:
		return core.DeblockMsg{Block: d.varint(), TTL: d.varint()}
	case tagUpdateDist:
		return core.UpdateDistMsg{Dist: d.varint()}
	case tagRemove:
		return core.RemoveMsg{Init: d.edge(), DegMax: d.varint(), Target: d.edge(),
			WDeg: d.varint(), Path: readSlice(d, d.varint), Pos: d.varint(), Reorient: d.flag()}
	case tagBack:
		return core.BackMsg{Init: d.edge(), Path: readSlice(d, d.varint), Pos: d.varint()}
	case tagReverseAux:
		return core.ReverseAuxMsg{Target: d.varint()}
	default:
		d.fail(fmt.Errorf("netrun: unknown message tag %#x", tag))
		return nil
	}
}

// readFrame decodes one frame and returns its messages: into msgs[:0]
// when msgs can hold them all, else into one new slice (so a nil msgs
// costs one slice per frame, besides the messages). On an error the
// returned messages are meaningless.
func readFrame(r io.ByteReader, msgs []sim.Message) ([]sim.Message, error) {
	d := wireReader{r: r}
	n := d.length()
	if cap(msgs) < n {
		msgs = make([]sim.Message, 0, min(n, framePrealloc))
	}
	msgs = msgs[:0]
	for i := 0; i < n && d.err == nil; i++ {
		msgs = append(msgs, d.msg())
	}
	return msgs, d.err
}

// readHello decodes a dialer's hello. The ID is unchecked: the accept
// side verifies it names a lower-ID neighbor.
func readHello(r io.ByteReader) (int, error) {
	d := wireReader{r: r}
	from := d.uvarint()
	return int(from), d.err
}

// readProbeRequest decodes one control-channel request; anything but
// tagProbe followed by a uvarint is an error.
func readProbeRequest(r io.ByteReader) (uint64, error) {
	d := wireReader{r: r}
	if tag := d.byte1(); d.err == nil && tag != tagProbe {
		return 0, fmt.Errorf("netrun: control request tag %#x is not a probe", tag)
	}
	seq := d.uvarint()
	return seq, d.err
}

// readProbeReply decodes one control-channel reply.
func readProbeReply(r io.ByteReader) (probeReply, error) {
	d := &wireReader{r: r}
	p := probeReply{Seq: d.uvarint(), Versions: readSlice(d, d.uvarint)}
	var fp [8]byte
	for i := range fp {
		fp[i] = d.byte1()
	}
	p.Fingerprint = binary.LittleEndian.Uint64(fp[:])
	p.ActiveSent = d.varint64()
	p.ActiveReceived = d.varint64()
	return p, d.err
}
