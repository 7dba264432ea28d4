package sim

import (
	"reflect"
	"testing"
)

// hashOnly is a process with a state hash but no StateVersion.
type hashOnly struct{ h uint64 }

func (p *hashOnly) Tick(*Context)                     {}
func (p *hashOnly) Receive(*Context, NodeID, Message) {}
func (p *hashOnly) Fingerprint() uint64               { return p.h }

// Sends, losses and rebaselines move the deficit counters; only the
// active kinds count toward it, every kind counts toward Traffic.
func TestBoardCountsActiveKindsAndTraffic(t *testing.T) {
	b := NewBoard([]Process{&hashOnly{}}, []string{"active"})
	for i := 0; i < 3; i++ {
		b.Sent("active")
	}
	for i := 0; i < 5; i++ {
		b.Sent("gossip")
	}
	b.Lost("active")
	b.Lost("gossip") // not an active kind: settles nothing
	if s := b.Sample(); s.ActiveSent != 3 || s.ActiveReceived != 1 {
		t.Fatalf("active sent/received %d/%d, want 3/1", s.ActiveSent, s.ActiveReceived)
	}
	total, byKind := b.Traffic()
	if want := map[string]int64{"active": 3, "gossip": 5}; total != 8 || !reflect.DeepEqual(byKind, want) {
		t.Fatalf("traffic %d %v, want 8 %v", total, byKind, want)
	}
	b.Rebaseline()
	if s := b.Sample(); s.ActiveSent != 3 || s.ActiveReceived != 3 {
		t.Fatalf("after Rebaseline active sent/received %d/%d, want 3/3", s.ActiveSent, s.ActiveReceived)
	}
}

// A loop posts once on entry even when halt is already closed, and a
// process without StateVersioner posts its hash as its version.
func TestBoardPostsHashAsVersion(t *testing.T) {
	b := NewBoard([]Process{&hashOnly{h: 42}}, nil)
	halt := make(chan struct{})
	close(halt)
	b.Loop(0, NewContext(0, nil, nil), nil, 1, halt)
	s := b.Sample()
	if s.Versions[0] != 42 || s.Fingerprint != mixNode(0, 42) {
		t.Fatalf("posted version %d fingerprint %x, want 42 %x", s.Versions[0], s.Fingerprint, mixNode(0, 42))
	}
}
