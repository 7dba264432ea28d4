package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

// freshDerived evaluates Deg, tree_stabilized and locally_stabilized
// from the node's state by the paper's definitions, bypassing the cache:
// edge_status by neighbor ID, then better_parent, new_root_candidate,
// degree_stabilized and color_stabilized.
func freshDerived(n *Node) (deg int, treeStab, localStab bool) {
	better, dmaxAgree, colorAgree := false, true, true
	for _, u := range n.nbrs {
		v, _ := n.ViewOf(u)
		if n.isTreeEdge(u) {
			deg++
		}
		better = better || v.Root < n.root && v.Distance+1 <= n.cfg.MaxDist
		dmaxAgree = dmaxAgree && v.Dmax == n.dmax
		colorAgree = colorAgree && v.Color == n.color
	}
	treeStab = !better && !n.newRootCandidate()
	return deg, treeStab, treeStab && dmaxAgree && colorAgree
}

// checkDerived fails when a cached derived value differs from a fresh
// computation on the node's current state.
func checkDerived(t *testing.T, n *Node, step string) {
	t.Helper()
	deg, treeStab, localStab := freshDerived(n)
	if n.Deg() != deg || n.treeStabilized() != treeStab || n.locallyStabilized() != localStab {
		t.Fatalf("%s: node %d caches deg=%d tree_stabilized=%v locally_stabilized=%v, fresh %d %v %v",
			step, n.id, n.Deg(), n.treeStabilized(), n.locallyStabilized(), deg, treeStab, localStab)
	}
}

// checkedNode runs one protocol node and checks it after every step.
// Embedding *Node forwards StateVersion, Fingerprint, NextWork,
// SkipTicks and CurrentRetryPeriod, so the simulator drives the wrapper
// exactly as it drives the node.
type checkedNode struct {
	*Node
	t     *testing.T
	idles *int // ticks that skipped the tree and degree modules
}

// Tick checks, before an idle tick, that the tree and degree modules it
// skips would leave the state alone: they run on a clone, whose version
// must not move.
func (c *checkedNode) Tick(ctx *sim.Context) {
	if c.idle() {
		*c.idles++
		cl := c.Clone()
		cl.runTreeModule()
		cl.runDegreeModule()
		if cl.version != c.version {
			c.t.Fatalf("node %d tick %d: idle, but its tree and degree modules move the state",
				c.id, c.tick+1)
		}
	}
	c.step("tick", func() { c.Node.Tick(ctx) })
}

func (c *checkedNode) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	c.step(fmt.Sprintf("receive %T from %d", m, from), func() { c.Node.Receive(ctx, from, m) })
}

// step runs one atomic step and checks that a changed fingerprint comes
// with a moved state version (both caches rest on that) and that the
// cached derived values are fresh.
func (c *checkedNode) step(what string, f func()) {
	c.t.Helper()
	fp, version := c.Fingerprint(), c.version
	f()
	if c.Fingerprint() != fp && c.version == version {
		c.t.Fatalf("node %d tick %d, %s: the state changed but its version stayed %d",
			c.id, c.tick, what, version)
	}
	checkDerived(c.t, c.Node, fmt.Sprintf("tick %d, %s", c.tick, what))
}

// Every step of a corrupt-start run keeps the state version honest and
// the derived-value cache fresh, and every idle tick is exact. The runs
// cover both exchanges under each scheduler on the compat core, on
// lossy links (which keep views stale and gossip changing) and on the
// event core, which parks idle nodes and wakes them for search retries.
func TestCacheAndVersionEveryStep(t *testing.T) {
	g := graph.RandomGnp(14, 0.3, rand.New(rand.NewSource(9)))
	modes := []struct {
		name  string
		drop  float64
		event bool
	}{{"compat", 0, false}, {"compat-drop0.2", 0.2, false}, {"event", 0, true}}
	scheds := []struct {
		name   string
		sched  func() sim.Scheduler
		policy sim.EventPolicy
	}{
		{"sync", func() sim.Scheduler { return sim.NewSyncScheduler() }, sim.EventPolicySync},
		{"async", func() sim.Scheduler { return sim.NewAsyncScheduler() }, sim.EventPolicyAsync},
		{"adversarial", func() sim.Scheduler { return sim.NewAdversarialScheduler() }, sim.EventPolicyAdversarial},
	}
	for _, ex := range exchanges {
		var exchanged int
		for _, sc := range scheds {
			for _, m := range modes {
				name := fmt.Sprintf("%s/%s/%s", ex.name, sc.name, m.name)
				cfg := DefaultConfig(g.N())
				idles := 0
				nodes := make([]*Node, g.N())
				net := sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
					nodes[id] = ex.newNode(id, nbrs, cfg)
					return &checkedNode{Node: nodes[id], t: t, idles: &idles}
				}, 5)
				rng := rand.New(rand.NewSource(7))
				for _, nd := range nodes {
					nd.Corrupt(rng, g.N())
					checkDerived(t, nd, name+" corrupt")
				}
				var res sim.RunResult
				if m.event {
					res = net.RunEvents(sim.EventConfig{Policy: sc.policy, MaxRounds: 20000,
						QuiesceRounds: 2*g.N() + 40, ActiveKinds: ReductionKinds()})
				} else {
					net.SetDropRate(m.drop)
					maxRounds := 20000
					if m.drop > 0 {
						maxRounds = 1500 // lossy links need not quiesce
					}
					res = net.Run(sim.RunConfig{Scheduler: sc.sched(), MaxRounds: maxRounds,
						QuiesceRounds: 2*g.N() + 40, ActiveKinds: ReductionKinds()})
				}
				if m.drop == 0 && !res.Converged {
					t.Fatalf("%s: did not converge", name)
				}
				if idles == 0 {
					t.Fatalf("%s: no tick was idle, so the skip was never checked", name)
				}
				exchanged += AggregateStats(nodes).ExchangesComplete
			}
		}
		if exchanged == 0 {
			t.Fatalf("%s: no run completed an exchange", ex.name)
		}
	}
}
