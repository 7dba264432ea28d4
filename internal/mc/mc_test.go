package mc

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/sim"
)

// buildLegit returns a triangle-plus-pendant network in a legitimate
// configuration (small enough to explore meaningfully).
func buildLegit(t *testing.T, g *graph.Graph) []*core.Node {
	t.Helper()
	cfg := core.DefaultConfig(g.N())
	net := core.BuildNetwork(g, cfg, 1)
	nodes := core.NodesOf(net)
	if err := harness.Preload(g, nodes, cfg); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestExploreLegitTriangleInvariants(t *testing.T) {
	// Triangle: the degree-2 tree is optimal, so no exchange can ever
	// fire; across ALL interleavings of gossip and searches the tree must
	// stay identical and root values in range.
	g := graph.Complete(3)
	nodes := buildLegit(t, g)
	res := Explore(g, nodes, Config{MaxStates: 30_000, MaxDepth: 12, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{TreeValidInvariant(g), RootBoundInvariant(3)}, nil)
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
	if res.States < 100 {
		t.Fatalf("explored only %d states", res.States)
	}
	if !res.FoundLegit {
		t.Fatal("initial state itself is legitimate; must be found")
	}
}

func TestExploreLegitSquareWithChord(t *testing.T) {
	// C4 plus chord: a non-tree edge exists, searches flow, yet from the
	// fixed point no interleaving may break the tree or mint a root.
	g := graph.Ring(4)
	g.MustAddEdge(0, 2)
	nodes := buildLegit(t, g)
	res := Explore(g, nodes, Config{MaxStates: 40_000, MaxDepth: 10, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{TreeValidInvariant(g), RootBoundInvariant(4)}, nil)
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
}

func TestExploreFindsLegitFromCleanStart(t *testing.T) {
	// From a clean start (every node its own root) on P3, some
	// interleaving within the horizon reaches a legitimate configuration
	// — convergence witnessed exhaustively rather than by sampling.
	g := graph.Path(3)
	cfg := core.DefaultConfig(3)
	net := core.BuildNetwork(g, cfg, 1)
	nodes := core.NodesOf(net)
	res := Explore(g, nodes, Config{MaxStates: 150_000, MaxDepth: 20, MaxQueue: 2, IncludeTicks: true},
		[]Invariant{RootBoundInvariant(3)}, nil)
	if res.Violation != nil {
		t.Fatalf("invariant violated: %v", res.Violation)
	}
	if !res.FoundLegit {
		t.Fatalf("no legitimate state within %d states (truncated=%v)", res.States, res.Truncated)
	}
}

func TestExploreDeliveryOnlyPermutations(t *testing.T) {
	// Without ticks: pre-load one round of gossip and permute deliveries
	// exhaustively; state must be identical regardless of order at the
	// fixed point (confluence of Update_State).
	g := graph.Path(3)
	nodes := buildLegit(t, g)
	// Seed queues by ticking each node once in a scratch state.
	st := &state{nodes: cloneNodes(nodes), queues: map[[2]int][]sim.Message{}}
	for id := 0; id < 3; id++ {
		tick(g, st, id, 4)
	}
	res := Explore(g, st.nodes, Config{MaxStates: 10_000, MaxDepth: 8, MaxQueue: 4},
		[]Invariant{TreeValidInvariant(g)}, nil)
	if res.Violation != nil {
		t.Fatalf("violated: %v", res.Violation)
	}
	if res.Truncated && res.States >= 10_000 {
		t.Fatal("delivery-only space should be small")
	}
}

// TestCopyMsgIsolatesSlices covers every protocol message type: a copy
// shares no Search token and no slice with its original, and hashes
// like it.
func TestCopyMsgIsolatesSlices(t *testing.T) {
	orig := &core.SearchMsg{Init: graph.Edge{U: 1, V: 2}, Block: -1,
		Path: []core.PathEntry{{Node: 1, Cursor: -1}, {Node: 3, Cursor: 2}}}
	cp := copyMsg(orig).(*core.SearchMsg)
	if cp == orig {
		t.Fatal("copyMsg shared the Search token")
	}
	if &cp.Path[0] == &orig.Path[0] {
		t.Fatal("copyMsg shared the Path backing array")
	}
	if hashMsg(cp) != hashMsg(orig) {
		t.Fatal("a Search token copy hashes differently")
	}
	cp.Path[1].Cursor = 4
	cp.TTL = 7
	if orig.Path[1].Cursor != 2 || orig.TTL != 0 {
		t.Fatal("editing the copy changed the original token")
	}
	if hashMsg(cp) == hashMsg(orig) {
		t.Fatal("tokens differing in Cursor and TTL hash alike")
	}
	cursor := copyMsg(orig).(*core.SearchMsg)
	cursor.Path[0].Cursor = 5
	if hashMsg(cursor) == hashMsg(orig) {
		t.Fatal("tokens differing only in one Cursor hash alike")
	}

	rev := core.ReverseMsg{Nodes: []int{1, 2}}
	cr := copyMsg(rev).(core.ReverseMsg)
	cr.Nodes[0] = 9
	if rev.Nodes[0] != 1 {
		t.Fatal("copyMsg shared the Nodes slice")
	}
	rm := core.RemoveMsg{Path: []int{1, 2}}
	copyMsg(rm).(core.RemoveMsg).Path[0] = 9
	back := core.BackMsg{Path: []int{1, 2}}
	copyMsg(back).(core.BackMsg).Path[0] = 9
	if rm.Path[0] != 1 || back.Path[0] != 1 {
		t.Fatal("copyMsg shared a Remove/Back Path slice")
	}

	// The value types without slices copy as themselves.
	for _, m := range []sim.Message{
		core.InfoMsg{Root: 1, Deg: 2},
		core.DeblockMsg{Block: 3, TTL: 1},
		core.UpdateDistMsg{Dist: 4},
		rev, rm, back,
	} {
		if hashMsg(copyMsg(m)) != hashMsg(m) {
			t.Fatalf("%T copy hashes differently", m)
		}
	}
}

// unlistedMsg is a message type the model checker does not know.
type unlistedMsg struct{}

func (unlistedMsg) Kind() string { return "unlisted" }
func (unlistedMsg) Size() int    { return 0 }

// A message type missing from copyMsg or hashMsg must stop the model
// checker, not be shared across branches or hashed as nothing.
func TestCopyAndHashRejectUnknownTypes(t *testing.T) {
	for name, f := range map[string]func(sim.Message){
		"copyMsg": func(m sim.Message) { copyMsg(m) },
		"hashMsg": func(m sim.Message) { hashMsg(m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an unknown message type", name)
				}
			}()
			f(unlistedMsg{})
		}()
	}
}

func TestHashDistinguishesStates(t *testing.T) {
	g := graph.Path(2)
	cfg := core.DefaultConfig(2)
	net := core.BuildNetwork(g, cfg, 1)
	a := &state{nodes: cloneNodes(core.NodesOf(net)), queues: map[[2]int][]sim.Message{}}
	b := cloneState(a)
	if hashState(g, a) != hashState(g, b) {
		t.Fatal("identical states hash differently")
	}
	b.nodes[0].SetState(1, 1, 0, 0, 0, false)
	if hashState(g, a) == hashState(g, b) {
		t.Fatal("different states collide")
	}
	c := cloneState(a)
	c.queues[[2]int{0, 1}] = []sim.Message{core.UpdateDistMsg{Dist: 3}}
	if hashState(g, a) == hashState(g, c) {
		t.Fatal("queue contents not hashed")
	}
}

func TestRootBoundInvariantFires(t *testing.T) {
	g := graph.Path(2)
	cfg := core.DefaultConfig(2)
	net := core.BuildNetwork(g, cfg, 1)
	nodes := core.NodesOf(net)
	nodes[0].SetState(-5, 0, 0, 0, 0, false)
	if err := RootBoundInvariant(2)(nodes); err == nil {
		t.Fatal("out-of-range root not caught")
	}
}

func TestNodeCloneIndependence(t *testing.T) {
	g := graph.Path(3)
	net := core.BuildNetwork(g, core.DefaultConfig(3), 1)
	rng := rand.New(rand.NewSource(1))
	nd := core.NodesOf(net)[1]
	nd.Corrupt(rng, 3)
	c := nd.Clone()
	if c.Fingerprint() != nd.Fingerprint() {
		t.Fatal("clone differs")
	}
	c.SetState(0, 0, 1, 2, 2, true)
	if c.Fingerprint() == nd.Fingerprint() {
		t.Fatal("clone shares state")
	}
	c.SetView(0, core.View{Root: 2})
	v, _ := nd.ViewOf(0)
	if v.Root == 2 {
		t.Fatal("clone shares views")
	}
}

// posProbe checks the position contract on every receive: the position
// handed with a delivery (FromPos) names the sender, which sends its
// own ID. Its Tick sends one message per link, by position.
type posProbe struct{ received, bad int }

func (p *posProbe) Tick(ctx *sim.Context) {
	for i := range ctx.Neighbors() {
		ctx.SendAt(i, core.UpdateDistMsg{Dist: ctx.ID()})
	}
}

func (p *posProbe) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	p.received++
	i := ctx.FromPos()
	if i < 0 || i >= len(ctx.Neighbors()) || ctx.Neighbors()[i] != from || m.(core.UpdateDistMsg).Dist != from {
		p.bad++
	}
}

// The checker's steps keep the position contract: a tick's sends land
// on the queue of the link they address, and each queued message is
// received, as Explore delivers it, with its sender's position.
func TestPositionContractMC(t *testing.T) {
	g := graph.RandomGnp(10, 0.4, rand.New(rand.NewSource(1)))
	st := &state{queues: map[[2]int][]sim.Message{}}
	probes := make([]*posProbe, g.N())
	for id := range probes {
		probes[id] = &posProbe{}
		probes[id].Tick(contextFor(g, st, id, 2))
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			q := st.queues[[2]int{u, v}]
			if len(q) != 1 {
				t.Fatalf("link %d->%d queued %d messages, want 1", u, v, len(q))
			}
			receive(contextFor(g, st, v, 2), probes[v], u, q[0])
		}
	}
	for id, p := range probes {
		if p.bad > 0 || p.received != g.Degree(id) {
			t.Fatalf("node %d: %d of %d receives named the wrong sender (degree %d)", id, p.bad, p.received, g.Degree(id))
		}
	}
}
