package netrun

import (
	"fmt"
	"strings"
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

// TestSendToNonNeighborPanics: locality is enforced over TCP too. Node
// 2's neighbors are 1 and 4; a send below, between or above them, to
// itself or outside the node range panics and names the target.
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
	for _, to := range []int{0, 3, 5, 2, g.N(), -1} {
		func() {
			want := fmt.Sprintf("node 2 sent to non-neighbor %d", to)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("send to %d recovered %v, want a panic containing %q", to, r, want)
				}
			}()
			c.send(2, to, core.UpdateDistMsg{Dist: 1})
		}()
	}
}
