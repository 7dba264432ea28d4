package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mdst/internal/graph"
)

// posProbe checks the position contract on every receive: the position
// a driver hands with a delivery (FromPos) names the sender, and the
// sender is the node that sent the message (its ID travels as the
// payload). Each tick sends one message per link, by position. The
// counters are atomic so a live test can wait on them; first is
// written by the node's own step and read after the run.
type posProbe struct {
	received, bad atomic.Int64
	first         string // the first violation seen
}

func (p *posProbe) Tick(ctx *Context) {
	for i := range ctx.Neighbors() {
		ctx.SendAt(i, minMsg{ctx.ID()})
	}
}

func (p *posProbe) Receive(ctx *Context, from NodeID, m Message) {
	i := ctx.FromPos()
	if i < 0 || i >= len(ctx.Neighbors()) || ctx.Neighbors()[i] != from || m.(minMsg).val != from {
		if p.bad.Add(1) == 1 {
			p.first = fmt.Sprintf("node %d received %v from %d at position %d of %v",
				ctx.ID(), m, from, i, ctx.Neighbors())
		}
	}
	p.received.Add(1)
}

func posProbeFactory(probes []*posProbe) func(NodeID, []NodeID) Process {
	return func(id NodeID, _ []NodeID) Process {
		probes[id] = &posProbe{}
		return probes[id]
	}
}

// checkProbes fails unless every node received something and no
// receive broke the contract.
func checkProbes(t *testing.T, probes []*posProbe) {
	t.Helper()
	for id, p := range probes {
		if bad := p.bad.Load(); bad > 0 {
			t.Fatalf("%d position violations, first: %s", bad, p.first)
		}
		if p.received.Load() == 0 {
			t.Fatalf("node %d received nothing", id)
		}
	}
}

// allReceived reports whether every probe has received a message.
func allReceived(probes []*posProbe) bool {
	for _, p := range probes {
		if p.received.Load() == 0 {
			return false
		}
	}
	return true
}

// positionGraphs are the probe's topologies: uneven degrees, so a
// position confused with a neighbor's ID or with the receiver's own
// position shows.
func positionGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":   graph.RandomGnp(20, 0.3, rand.New(rand.NewSource(3))),
		"wheel": graph.Wheel(9),
	}
}

// The simulator's three schedulers and its event core hand every
// receiver the sender's position, after a drop too (the lossy run).
func TestPositionContractSim(t *testing.T) {
	for name, g := range positionGraphs() {
		runs := map[string]func(*Network){
			"sync":        func(n *Network) { n.Run(RunConfig{Scheduler: NewSyncScheduler(), MaxRounds: 20}) },
			"async":       func(n *Network) { n.Run(RunConfig{Scheduler: NewAsyncScheduler(), MaxRounds: 20}) },
			"adversarial": func(n *Network) { n.Run(RunConfig{Scheduler: NewAdversarialScheduler(), MaxRounds: 20}) },
			"event":       func(n *Network) { n.RunEvents(EventConfig{MaxRounds: 20}) },
			"lossy": func(n *Network) {
				n.SetDropRate(0.2)
				n.Run(RunConfig{Scheduler: NewAsyncScheduler(), MaxRounds: 20})
			},
		}
		for run, f := range runs {
			t.Run(name+"/"+run, func(t *testing.T) {
				probes := make([]*posProbe, g.N())
				net := NewNetwork(g, posProbeFactory(probes), 7)
				f(net)
				checkProbes(t, probes)
			})
		}
	}
}

// The live runtime hands the position with every envelope.
func TestPositionContractLive(t *testing.T) {
	for name, g := range positionGraphs() {
		t.Run(name, func(t *testing.T) {
			probes := make([]*posProbe, g.N())
			ln := NewLiveNetwork(g, posProbeFactory(probes), LiveConfig{TickInterval: time.Millisecond})
			ln.Start()
			for deadline := time.Now().Add(10 * time.Second); !allReceived(probes) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			ln.Stop()
			checkProbes(t, probes)
		})
	}
}

// Every link's reverse index names its sender, on every generator
// family, in the simulator's links and in the live runtime's index.
func TestReverseIndexEveryFamily(t *testing.T) {
	families := append(graph.Families(), graph.ExtraFamilies()...)
	for _, fam := range families {
		g := fam.Build(30, rand.New(rand.NewSource(1)))
		net := newMinNetwork(g, 1)
		ln := newLiveMin(g, time.Millisecond)
		for u := 0; u < g.N(); u++ {
			for i, v := range g.Neighbors(u) {
				l := net.links[net.linkOff[u]+i]
				if l.to != v || g.Neighbors(v)[l.at] != u {
					t.Fatalf("%s: sim link %d->%d leads to %d from position %d", fam.Name, u, v, l.to, l.at)
				}
				if at := ln.at[ln.linkOff[u]+i]; g.Neighbors(v)[at] != u {
					t.Fatalf("%s: live link %d->%d names position %d of %v", fam.Name, u, v, at, g.Neighbors(v))
				}
			}
		}
	}
}

// A position means something only against the sorted neighbor list, so
// NewContext rejects any other.
func TestNewContextRejectsUnsortedNeighbors(t *testing.T) {
	for _, nbrs := range [][]NodeID{{2, 1}, {1, 1}, {0, 3, 3, 4}, {4, 5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewContext accepted neighbor list %v", nbrs)
				}
			}()
			NewContext(0, nbrs, nil)
		}()
	}
	for _, nbrs := range [][]NodeID{nil, {7}, {1, 2, 9}} {
		if ctx := NewContext(0, nbrs, nil); len(ctx.Neighbors()) != len(nbrs) || ctx.FromPos() != -1 {
			t.Fatalf("NewContext(%v): neighbors %v, position %d", nbrs, ctx.Neighbors(), ctx.FromPos())
		}
	}
}
