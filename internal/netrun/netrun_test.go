package netrun

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// buildCore wires a cluster of chain-exchange nodes over g.
func buildCore(g *graph.Graph) *Cluster {
	cfg := core.DefaultConfig(g.N())
	return NewCluster(g, func(id int, nbrs []int) sim.Process {
		return core.NewNode(id, nbrs, cfg)
	}, Config{})
}

// TestStartStopIdempotence: Stop without Start is a no-op; double Start
// errors; restart works.
func TestStartStopIdempotence(t *testing.T) {
	g := graph.Ring(4)
	c := buildCore(g)
	c.Stop() // no-op
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		c.Stop()
		t.Fatal("double Start did not error")
	}
	c.Stop()
	if err := c.Start(); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
	c.Stop()
}

// runFor runs one phase of c: Start, sleep d, Stop.
func runFor(t *testing.T, c *Cluster, d time.Duration) {
	t.Helper()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(d)
	c.Stop()
}

// The Sent counter accumulates across phase restarts — a Stop/Start
// cycle must never reset it. This pins the whole-run traffic semantics
// the certificate-gated driver reports when it resumes a run.
func TestSentAccumulatesAcrossRestarts(t *testing.T) {
	g := graph.Wheel(6)
	c := buildCore(g)
	runFor(t, c, 150*time.Millisecond)
	first := c.Sent()
	if first <= 0 {
		t.Fatalf("no messages accepted in the first phase (Sent=%d)", first)
	}
	if c.Restarts() != 0 {
		t.Fatalf("Restarts=%d after one Start", c.Restarts())
	}
	runFor(t, c, 150*time.Millisecond)
	if second := c.Sent(); second <= first {
		t.Fatalf("Sent reset across restart: %d after restart, %d before", second, first)
	}
	if c.Restarts() != 1 {
		t.Fatalf("Restarts=%d after two Starts, want 1", c.Restarts())
	}
}

// TestSendToNonNeighborPanics: locality is enforced over TCP too. A
// node loop sends through a sim.Context over Cluster.send. Node 2's
// neighbors are 1 and 4; a send below, between or above them, to
// itself or outside the node range panics and names the target, and so
// does a send to a position outside the list.
func TestSendToNonNeighborPanics(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	c := buildCore(g)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx := sim.NewContext(2, g.Neighbors(2), c.send)
	for _, to := range []int{0, 3, 5, 2, g.N(), -1} {
		func() {
			want := fmt.Sprintf("node 2 sent to non-neighbor %d", to)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("send to %d recovered %v, want a panic containing %q", to, r, want)
				}
			}()
			ctx.Send(to, core.UpdateDistMsg{Dist: 1})
		}()
	}
	for _, i := range []int{-1, 2} {
		func() {
			want := "send to a position outside the neighbor list"
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("send to position %d recovered %v, want a panic containing %q", i, r, want)
				}
			}()
			ctx.SendAt(i, core.UpdateDistMsg{Dist: 1})
		}()
	}
}

// posProbe checks the position contract on every receive: the position
// the node loop hands with a delivery (FromPos) names the sender, which
// sends its own ID. The counters are atomic so the test can wait on
// them while the cluster runs.
type posProbe struct{ received, bad atomic.Int64 }

func (p *posProbe) Tick(ctx *sim.Context) {
	for i := range ctx.Neighbors() {
		ctx.SendAt(i, core.UpdateDistMsg{Dist: ctx.ID()})
	}
}

func (p *posProbe) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	i := ctx.FromPos()
	if i < 0 || i >= len(ctx.Neighbors()) || ctx.Neighbors()[i] != from || m.(core.UpdateDistMsg).Dist != from {
		p.bad.Add(1)
	}
	p.received.Add(1)
}

// Over tcp a frame's reader stamps every envelope with the position the
// connection was started with, on the dial side and the accept side,
// with one message per frame and with coalesced frames.
func TestPositionContractTCP(t *testing.T) {
	g := graph.RandomGnp(12, 0.4, rand.New(rand.NewSource(2)))
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			probes := make([]*posProbe, g.N())
			c := NewCluster(g, func(id int, _ []int) sim.Process {
				probes[id] = &posProbe{}
				return probes[id]
			}, Config{TickInterval: time.Millisecond, BatchSize: batch, BatchMaxWait: time.Millisecond})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			// Every node has received a frame from every neighbor once it
			// has received as many messages as it has neighbors, at the
			// earliest; wait for that or a deadline.
			waiting := func() bool {
				for id, p := range probes {
					if p.received.Load() < int64(g.Degree(id)) {
						return true
					}
				}
				return false
			}
			for deadline := time.Now().Add(10 * time.Second); waiting() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			c.Stop()
			for id, p := range probes {
				if bad, got := p.bad.Load(), p.received.Load(); bad > 0 || got == 0 {
					t.Fatalf("node %d: %d of %d receives named the wrong sender", id, bad, got)
				}
			}
		})
	}
}
