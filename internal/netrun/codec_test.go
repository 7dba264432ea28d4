package netrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// wireCase is one message and what it must decode back as (the message
// itself unless want is set: an empty slice decodes as nil).
type wireCase struct {
	in, want sim.Message
}

// wireCases covers all seven message types with a distinct value in
// every field, negative values (−1 parents and cursors), values at the
// int64 limits, and nil, empty and non-empty slices.
var wireCases = []wireCase{
	{in: core.InfoMsg{Root: 17, Parent: -1, Distance: 3, Dmax: 5, Submax: 4, Deg: 2, Color: true}},
	{in: core.InfoMsg{Root: math.MaxInt64, Parent: math.MinInt64, Distance: 1 << 40, Dmax: -2, Submax: 300, Deg: 70000}},
	{in: &core.SearchMsg{Init: graph.Edge{U: 2, V: 9}, Block: -1, TTL: 6}},
	{in: &core.SearchMsg{Init: graph.Edge{U: 11, V: 12}, Block: 7, TTL: 3, Path: []core.PathEntry{
		{Node: 2, Deg: 3, Parent: -1, Cursor: -1}, {Node: 5, Deg: 4, Parent: 2, Cursor: 1 << 33}}}},
	{in: &core.SearchMsg{Init: graph.Edge{U: 1, V: 3}, Block: 4, TTL: 5, Path: []core.PathEntry{}},
		want: &core.SearchMsg{Init: graph.Edge{U: 1, V: 3}, Block: 4, TTL: 5}},
	{in: core.ReverseMsg{Init: graph.Edge{U: 1, V: 4}, DegMax: 5, TargetNode: 6, TargetDeg: 7, Nodes: []int{8, -9, 10}, Dist: 11}},
	{in: core.ReverseMsg{Init: graph.Edge{U: 21, V: 22}, DegMax: 23, TargetNode: -1, TargetDeg: 24, Dist: 25}},
	{in: core.DeblockMsg{Block: 12, TTL: -3}},
	{in: core.UpdateDistMsg{Dist: -7}},
	{in: core.RemoveMsg{Init: graph.Edge{U: 31, V: 32}, DegMax: 33, Target: graph.Edge{U: 34, V: 35}, WDeg: 36,
		Path: []int{37, 38, 39}, Pos: 40, Reorient: true}},
	{in: core.RemoveMsg{Init: graph.Edge{U: 41, V: 42}, DegMax: 43, Target: graph.Edge{U: -1, V: 44}, WDeg: 45,
		Path: []int{}, Pos: -46},
		want: core.RemoveMsg{Init: graph.Edge{U: 41, V: 42}, DegMax: 43, Target: graph.Edge{U: -1, V: 44}, WDeg: 45, Pos: -46}},
	{in: core.BackMsg{Init: graph.Edge{U: 51, V: 52}, Path: []int{53, math.MinInt64}, Pos: 54}},
	{in: core.BackMsg{Init: graph.Edge{U: 55, V: 56}, Pos: 57}},
}

// Every message type decodes back equal, alone and all together in one
// frame, and the decoder reads exactly the bytes the encoder wrote.
func TestWireRoundTrip(t *testing.T) {
	types := map[string]bool{}
	var all, want []sim.Message
	for _, tc := range wireCases {
		exp := tc.want
		if exp == nil {
			exp = tc.in
		}
		types[fmt.Sprintf("%T", tc.in)] = true
		all, want = append(all, tc.in), append(want, exp)
		checkRoundTrip(t, []sim.Message{tc.in}, []sim.Message{exp})
	}
	if len(types) != 7 {
		t.Fatalf("cases cover %d message types, want all 7", len(types))
	}
	checkRoundTrip(t, all, want)
}

func checkRoundTrip(t *testing.T, in, want []sim.Message) {
	t.Helper()
	wire := appendFrame(nil, in)
	r := bytes.NewReader(wire)
	got, err := readFrame(r, nil)
	if err != nil {
		t.Fatalf("decode %+v: %v", in, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip of %+v decoded as %+v", in, got)
	}
	if r.Len() != 0 {
		t.Fatalf("decode of %+v left %d of %d bytes unread", in, r.Len(), len(wire))
	}
}

// Every tag byte is pinned: each of the seven message types opens with
// the tag it has always had, and a control request with the probe tag.
// Deleting a line from the tag block would otherwise renumber the tags
// below it without failing any round trip.
func TestWireTagsPinned(t *testing.T) {
	for _, tc := range []struct {
		msg sim.Message
		tag byte
	}{
		{core.InfoMsg{}, 1},
		{&core.SearchMsg{}, 2},
		{core.ReverseMsg{}, 3},
		{core.DeblockMsg{}, 4},
		{core.UpdateDistMsg{}, 5},
		{core.RemoveMsg{}, 6},
		{core.BackMsg{}, 7},
	} {
		if b := appendMsg(nil, tc.msg); b[0] != tc.tag {
			t.Errorf("%T opens with tag %d, want %d", tc.msg, b[0], tc.tag)
		}
	}
	if b := appendProbeRequest(nil, 42); b[0] != 9 {
		t.Errorf("a probe request opens with %d, want 9", b[0])
	}
}

// strayMsg is a message type the codec has no tag for.
type strayMsg struct{}

func (strayMsg) Kind() string { return "stray" }
func (strayMsg) Size() int    { return 1 }

// Sending a type without a tag is a programming error: encoding it
// panics and names the type instead of falling back to anything.
func TestEncodeUntaggedMessagePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "netrun.strayMsg") {
			t.Fatalf("encoding an untagged type recovered %v, want a panic naming netrun.strayMsg", r)
		}
	}()
	appendFrame(nil, []sim.Message{strayMsg{}})
}

// The decoders reject hostile bytes instead of guessing.
func TestWireRejectsMalformed(t *testing.T) {
	overCap := binary.AppendUvarint(nil, maxWireLen+1)
	// A BackMsg whose path holds one element more than the cap, every
	// element present: only the cap refuses it.
	longPath := append([]byte{1, tagBack, 0, 0}, overCap...)
	longPath = append(longPath, make([]byte, maxWireLen+2)...) // the path's zeros, then Pos
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{1, 0xff}},
		{"zero tag", []byte{1, 0}},
		{"bool byte 2", []byte{1, tagInfo, 0, 0, 0, 0, 0, 0, 2}},
		{"truncated message", []byte{1, tagInfo, 2, 2}},
		{"truncated count", []byte{0x80}},
		{"missing message", []byte{2, tagUpdateDist, 2}},
		{"frame count over the cap", overCap},
		{"path length over the cap", longPath},
	} {
		if _, err := readFrame(bytes.NewReader(tc.wire), nil); err == nil {
			t.Errorf("%s: frame decoded", tc.name)
		}
	}
	for _, wire := range [][]byte{nil, {tagProbe}, {tagProbe, 0x80}, {tagInfo, 1}, []byte("metrics")} {
		if _, err := readProbeRequest(bytes.NewReader(wire)); err == nil {
			t.Errorf("probe request %x decoded", wire)
		}
	}
	reply := appendProbeReply(nil, probeReply{Seq: 1, Versions: []uint64{1, 2}, Fingerprint: 3})
	for _, wire := range [][]byte{reply[:len(reply)-1], append([]byte{1}, overCap...)} {
		if _, err := readProbeReply(bytes.NewReader(wire)); err == nil {
			t.Errorf("probe reply %x decoded", wire)
		}
	}
}

// gossipFrame is a steady-state frame: 16 InfoMsg.
func gossipFrame() []sim.Message {
	msgs := make([]sim.Message, 16)
	for i := range msgs {
		msgs[i] = core.InfoMsg{Root: 0, Parent: i - 1, Distance: i, Dmax: 3, Submax: 2, Deg: 2, Color: i%2 == 0}
	}
	return msgs
}

// The codec's allocation gate: encoding a gossip frame into a reused
// buffer allocates nothing, and decoding it into a reused slice
// allocates once per message (the interface box each message travels
// in to the inbox).
func TestFrameCodecAllocs(t *testing.T) {
	msgs := gossipFrame()
	buf := appendFrame(nil, msgs)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendFrame(buf[:0], msgs) }); allocs > 0 {
		t.Fatalf("encoding a frame of %d InfoMsg allocates %.1f times, want 0", len(msgs), allocs)
	}
	r := bytes.NewReader(buf)
	out := make([]sim.Message, 0, len(msgs))
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(buf)
		var err error
		if out, err = readFrame(r, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(len(msgs)) {
		t.Fatalf("decoding a frame of %d InfoMsg allocates %.1f times, want at most %d", len(msgs), allocs, len(msgs))
	}
}

// BenchmarkFrameCodec encodes and decodes one steady-state gossip frame
// per op, reusing the buffer and the message slice as the edge writer
// and reader do.
func BenchmarkFrameCodec(b *testing.B) {
	msgs := gossipFrame()
	buf := appendFrame(nil, msgs)
	out := make([]sim.Message, 0, len(msgs))
	r := bytes.NewReader(buf)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], msgs)
		r.Reset(buf)
		var err error
		if out, err = readFrame(r, out); err != nil {
			b.Fatal(err)
		}
	}
}

// The fuzzers: no input may panic, and whatever decodes must re-encode
// to bytes that decode to the same value (not necessarily to the same
// bytes: a varint may have padded encodings). The seed corpora under
// testdata/fuzz hold the pinned frames, a truncated frame, a length over
// the cap and an unknown tag.

func FuzzReadFrame(f *testing.F) {
	var all []sim.Message
	for _, tc := range wireCases {
		all = append(all, tc.in)
	}
	f.Add(appendFrame(nil, all))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		again, err := readFrame(bytes.NewReader(appendFrame(nil, msgs)), nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, msgs) {
			t.Fatalf("frame %x decoded as %+v, re-encoded as %+v", data, msgs, again)
		}
	})
}

func FuzzProbeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := readProbeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := readProbeRequest(bytes.NewReader(appendProbeRequest(nil, seq)))
		if err != nil || again != seq {
			t.Fatalf("request %x decoded as seq %d, re-encoded as %d (%v)", data, seq, again, err)
		}
	})
}

func FuzzProbeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := readProbeReply(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := readProbeReply(bytes.NewReader(appendProbeReply(nil, r)))
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("reply %x decoded as %+v, re-encoded as %+v", data, r, again)
		}
	})
}
