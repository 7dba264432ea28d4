package paperproto_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/paperproto"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// These tests drive nodes built by paperproto.NewNode — the literal
// exchange — through the exported Process interface only (Tick,
// Receive, the state accessors), so they check that the shared modules
// behave the same under the paper's Remove/Back choreography.

func buildNetwork(g *graph.Graph, cfg core.Config, seed int64) *sim.Network {
	return sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		return paperproto.NewNode(id, nbrs, cfg)
	}, seed)
}

func nodesOf(net *sim.Network) []*paperproto.Node {
	out := make([]*paperproto.Node, net.Graph().N())
	for i := range out {
		out[i] = net.Process(i).(*paperproto.Node)
	}
	return out
}

func runToQuiescence(net *sim.Network, g *graph.Graph, sched sim.Scheduler, maxRounds int) sim.RunResult {
	if maxRounds <= 0 {
		maxRounds = 200*g.N() + 20000
	}
	return net.Run(sim.RunConfig{
		Scheduler:     sched,
		MaxRounds:     maxRounds,
		QuiesceRounds: 2*g.N() + 40,
		ActiveKinds:   paperproto.ReductionKinds(),
	})
}

// drain delivers every pending message in deterministic order until the
// network is quiet (no ticks run).
func drain(net *sim.Network, maxSteps int) {
	for steps := 0; steps < maxSteps; steps++ {
		links := net.NonEmptyLinks()
		if len(links) == 0 {
			return
		}
		net.Deliver(links[0])
	}
}

// preload writes a legitimate configuration: the BFS tree reduced to a
// Fürer–Raghavachari fixed point, with coherent views.
func preload(g *graph.Graph, net *sim.Network) *spanning.Tree {
	tree := spanning.BFSTree(g, 0)
	mdstseq.FurerRaghavachari(tree)
	loadTree(g, net, tree)
	return tree
}

// loadTree installs a valid tree plus coherent degree data as the
// current configuration.
func loadTree(g *graph.Graph, net *sim.Network, tree *spanning.Tree) {
	k := tree.MaxDegree()
	deg := tree.Degrees()
	submax := make([]int, g.N())
	for pass := 0; pass < g.N(); pass++ {
		for v := 0; v < g.N(); v++ {
			submax[v] = deg[v]
			for _, c := range tree.Children(v) {
				if submax[c] > submax[v] {
					submax[v] = submax[c]
				}
			}
		}
	}
	depth := tree.Depths()
	nodes := nodesOf(net)
	for i, nd := range nodes {
		nd.SetState(tree.Root(), tree.Parent(i), depth[i], k, submax[i], false)
	}
	for i, nd := range nodes {
		for _, u := range g.Neighbors(i) {
			nd.SetView(u, core.View{
				Root:     tree.Root(),
				Parent:   tree.Parent(u),
				Distance: depth[u],
				Dmax:     k,
				Submax:   submax[u],
				Deg:      deg[u],
			})
		}
	}
}

func TestMessageKindsAndSizes(t *testing.T) {
	r := core.RemoveMsg{Path: []int{1, 2, 3}}
	if r.Kind() != core.KindRemove || r.Size() != 11 {
		t.Fatalf("Remove kind=%q size=%d", r.Kind(), r.Size())
	}
	b := core.BackMsg{Path: []int{1, 2}}
	if b.Kind() != core.KindBack || b.Size() != 6 {
		t.Fatalf("Back kind=%q size=%d", b.Kind(), b.Size())
	}
	kinds := paperproto.ReductionKinds()
	if len(kinds) != 4 {
		t.Fatalf("ReductionKinds = %v", kinds)
	}
}

func TestDegAndTreeEdgeDerivation(t *testing.T) {
	g := graph.Star(5) // five nodes: hub 0, leaves 1..4
	net := buildNetwork(g, core.DefaultConfig(5), 1)
	nodes := nodesOf(net)
	hub := nodes[0]
	hub.SetState(0, 0, 0, 0, 0, false)
	for leaf := 1; leaf <= 4; leaf++ {
		nodes[leaf].SetState(0, 0, 1, 0, 0, false)
		hub.SetView(leaf, core.View{Root: 0, Parent: 0, Distance: 1})
	}
	if d := hub.Deg(); d != 4 {
		t.Fatalf("hub degree %d, want 4", d)
	}
	if nodes[1].Parent() != 0 {
		t.Fatal("tree edge derivation broken")
	}
	// The hub derives edge {0,1} from its copy of leaf 1's parent
	// pointer alone: re-point that copy and the edge leaves the tree.
	hub.SetView(1, core.View{Root: 0, Parent: 1, Distance: 1})
	if d := hub.Deg(); d != 3 {
		t.Fatalf("hub degree %d after leaf 1's copy left the tree, want 3", d)
	}
}

func TestStateBitsMatchesAccounting(t *testing.T) {
	g := graph.Complete(6)
	cfg := core.DefaultConfig(6)
	net := buildNetwork(g, cfg, 1)
	for _, nd := range nodesOf(net) {
		want := (6 + 7*5) * bits.Len(uint(cfg.MaxDist))
		if nd.StateBits() != want {
			t.Fatalf("StateBits %d, want %d", nd.StateBits(), want)
		}
	}
}

func TestCorruptStaysInDomain(t *testing.T) {
	g := graph.Ring(8)
	net := buildNetwork(g, core.DefaultConfig(8), 3)
	rng := rand.New(rand.NewSource(3))
	for _, nd := range nodesOf(net) {
		nd.Corrupt(rng, 8)
		if nd.Root() < 0 || nd.Root() >= 8 {
			t.Fatalf("corrupted root %d out of ID space", nd.Root())
		}
	}
}

// The Deblock flood is rate-limited per blocker and respects TTL.
func TestDeblockFloodRateLimitAndTTL(t *testing.T) {
	g := graph.Star(3)
	net := buildNetwork(g, core.DefaultConfig(4), 1)
	preload(g, net)
	nodes := nodesOf(net)

	ctx := net.Context(0)
	before := nodes[0].NodeStats().DeblocksTriggered
	nodes[0].Receive(ctx, 1, core.DeblockMsg{Block: 0, TTL: 2})
	first := nodes[0].NodeStats().DeblocksTriggered
	if first != before+1 {
		t.Fatalf("first deblock not processed: %d triggered, want %d", first, before+1)
	}
	nodes[0].Receive(ctx, 1, core.DeblockMsg{Block: 0, TTL: 2}) // within SearchPeriod: suppressed
	if nodes[0].NodeStats().DeblocksTriggered != first {
		t.Fatal("deblock storm not suppressed")
	}
	// TTL zero messages are ignored by receivers.
	before = nodes[1].NodeStats().DeblocksTriggered
	nodes[1].Receive(net.Context(1), 0, core.DeblockMsg{Block: 0, TTL: 0})
	if nodes[1].NodeStats().DeblocksTriggered != before {
		t.Fatal("TTL-0 deblock processed")
	}
}

// UpdateDist only applies when coming from the parent and propagates on
// change.
func TestUpdateDistParentOnly(t *testing.T) {
	g := graph.Path(3)
	net := buildNetwork(g, core.DefaultConfig(3), 1)
	tree, err := spanning.NewFromParents(g, []int{0, 0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loadTree(g, net, tree)
	nodes := nodesOf(net)

	nodes[1].Receive(net.Context(1), 2, core.UpdateDistMsg{Dist: 9}) // from child: ignored
	if nodes[1].Distance() != 1 {
		t.Fatalf("distance changed by non-parent UpdateDist: %d", nodes[1].Distance())
	}
	nodes[1].Receive(net.Context(1), 0, core.UpdateDistMsg{Dist: 4}) // from parent: applied
	if nodes[1].Distance() != 5 {
		t.Fatalf("distance %d, want 5", nodes[1].Distance())
	}
	drain(net, 100)
	if nodes[2].Distance() != 6 {
		t.Fatalf("child distance %d, want 6 (flood)", nodes[2].Distance())
	}
}

// Search guard: tokens are dropped while the neighborhood is not locally
// stabilized (the paper's freeze).
func TestSearchGuardDropsWhenNotStabilized(t *testing.T) {
	g := graph.Ring(4)
	net := buildNetwork(g, core.DefaultConfig(4), 1)
	preload(g, net)
	nodes := nodesOf(net)
	nodes[2].SetView(1, core.View{Root: 0, Parent: 0, Dmax: 9})
	token := &core.SearchMsg{
		Init:  graph.Edge{U: 1, V: 2},
		Block: -1,
		Path:  []core.PathEntry{{Node: 1, Deg: 2, Parent: 0, Cursor: 2}},
	}
	before := nodes[2].NodeStats().CyclesClassified
	nodes[2].Receive(net.Context(2), 1, token)
	if nodes[2].NodeStats().CyclesClassified != before {
		t.Fatal("token processed despite destabilized neighborhood")
	}
}

// TestBackoffDeepensToCapAndNeighborBumpResets runs the adaptive
// suppression life cycle through the node's own Tick-driven launches:
// while the state version is a fixed point, every full window that
// lapses before an equivalent launch doubles the pruning window
// (4 → 8 → 16 → 32 → 64, saturating at BackoffCapWindow), and a neighbor
// version bump at the deepest tier resets the schedule to the base.
// SearchPeriod 1 makes the edge due on every tick, so the pruner alone
// decides whether a tick launches.
func TestBackoffDeepensToCapAndNeighborBumpResets(t *testing.T) {
	g := graph.Wheel(8)
	cfg := core.DefaultConfig(8)
	cfg.Retry = core.RetryBackoff
	cfg.SearchPeriod = 1
	net := buildNetwork(g, cfg, 1)
	// The BFS star keeps dmax above 2, so ticks launch searches at all.
	tree := spanning.BFSTree(g, 0)
	loadTree(g, net, tree)
	nodes := nodesOf(net)

	// A ring node whose only launchable edge (non-tree, toward a higher
	// ID) is {u, v}: each of its ticks makes at most one launch decision.
	u := -1
	for w := 0; w < g.N() && u < 0; w++ {
		var up []int
		for _, x := range g.Neighbors(w) {
			if x > w && tree.Parent(x) != w && tree.Parent(w) != x {
				up = append(up, x)
			}
		}
		if len(up) == 1 {
			u = w
		}
	}
	if u < 0 {
		t.Fatal("no node with a single launchable non-tree edge")
	}
	nd := nodes[u]
	ctx := net.Context(u)

	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("initial retry period %d, want base %d", got, cfg.PruneWindow())
	}

	// First launch: no record yet, passes without deepening.
	st := nd.NodeStats()
	nd.Tick(ctx)
	if after := nd.NodeStats(); after.SearchesLaunched != st.SearchesLaunched+1 {
		t.Fatal("first tick launched no search")
	}
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("first pass deepened the schedule to %d", got)
	}

	for i, want := range []struct{ window, next int }{
		{4, 8}, {8, 16}, {16, 32}, {32, 64}, {64, 64},
	} {
		if got := nd.CurrentRetryPeriod(); got != want.window {
			t.Fatalf("step %d: retry period %d, want %d", i, got, want.window)
		}
		st := nd.NodeStats()
		nd.SkipTicks(want.window - 2)
		nd.Tick(ctx) // one tick inside the window
		mid := nd.NodeStats()
		if mid.SearchesLaunched != st.SearchesLaunched {
			t.Fatalf("step %d: launch inside the %d-tick window not pruned", i, want.window)
		}
		if mid.SearchesSuppressed != st.SearchesSuppressed+1 {
			t.Fatalf("step %d: suppressed counter %d, want +1", i, mid.SearchesSuppressed)
		}
		nd.Tick(ctx) // window expiry
		if after := nd.NodeStats(); after.SearchesLaunched != mid.SearchesLaunched+1 {
			t.Fatalf("step %d: post-window launch pruned", i)
		}
		if got := nd.CurrentRetryPeriod(); got != want.next {
			t.Fatalf("step %d: retry period %d after lapse, want %d", i, got, want.next)
		}
	}
	if got, cap := nd.CurrentRetryPeriod(), cfg.BackoffCapWindow(); got != cap {
		t.Fatalf("deepest retry period %d, want cap %d", got, cap)
	}

	// Still pruned at the deepest tier one tick after the last pass.
	st = nd.NodeStats()
	nd.Tick(ctx)
	if after := nd.NodeStats(); after.SearchesLaunched != st.SearchesLaunched {
		t.Fatal("launch at the deepest tier not pruned inside the cap window")
	}

	// Neighbor version bump: instant reset, the next launch passes.
	nb := g.Neighbors(u)[0]
	w, _ := nd.ViewOf(nb)
	w.Submax++
	nd.SetView(nb, w)
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("retry period %d after neighbor bump, want base %d", got, cfg.PruneWindow())
	}
	st = nd.NodeStats()
	nd.Tick(ctx)
	if after := nd.NodeStats(); after.SearchesLaunched != st.SearchesLaunched+1 {
		t.Fatal("launch after neighbor version bump still pruned")
	}
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("retry period %d after recovery pass, want base %d", got, cfg.PruneWindow())
	}
}

func TestDeterministicExecution(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() (uint64, int64) {
		net := buildNetwork(g, core.DefaultConfig(16), 77)
		rng := rand.New(rand.NewSource(99))
		for _, nd := range nodesOf(net) {
			nd.Corrupt(rng, g.N())
		}
		runToQuiescence(net, g, sim.NewAsyncScheduler(), 3000)
		return net.Fingerprint(), net.Metrics().Events
	}
	f1, e1 := run()
	f2, e2 := run()
	if f1 != f2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", f1, e1, f2, e2)
	}
}

// TestSteadyGossipAllocsPerTick is the literal node's allocation gate
// for gossip: on a converged ring the tree is a path (dmax = 2), so no
// search launches and a steady sync round allocates nothing (the
// repeated InfoMsg box is re-sent).
func TestSteadyGossipAllocsPerTick(t *testing.T) {
	g := graph.Ring(16)
	net := buildNetwork(g, core.DefaultConfig(g.N()), 3)
	sched := sim.NewSyncScheduler()
	res := net.Run(sim.RunConfig{Scheduler: sched, MaxRounds: 2000,
		QuiesceRounds: 56, ActiveKinds: core.ReductionKinds()})
	if !res.Converged {
		t.Fatal("ring did not converge")
	}
	allocs := testing.AllocsPerRun(20, func() { sched.RunRound(net) })
	if allocs > 0 {
		t.Fatalf("steady sync round allocates %.1f times for %d node ticks (2m = %d), want 0",
			allocs, g.N(), 2*g.M())
	}
}
