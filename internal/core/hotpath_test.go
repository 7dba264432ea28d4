package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

// A Search hop through Receive allocates nothing: the token travels by
// pointer and its Path starts with spare capacity. The fixture is node 1
// of the tree 0-1, 1-2, 1-3, 1-4 (rooted at 0), holding a token that
// seeks node 5 from initiator 0.
func TestSearchHopAllocsNothing(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {1, 4}, {4, 5}, {0, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	net := BuildNetwork(g, DefaultConfig(g.N()), 1)
	loadTree(g, net, chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 1}, {4, 1}, {5, 4}}))
	x := NodesOf(net)[1]
	if !x.locallyStabilized() {
		t.Fatal("fixture node is not locally stabilized")
	}
	sentTo := -1
	var sent sim.Message
	ctx := sim.NewContext(1, g.Neighbors(1), func(_, to int, m sim.Message) {
		sentTo, sent = to, m
	})
	tok := &SearchMsg{Init: graph.Edge{U: 0, V: 5}, Block: -1,
		Path: make([]PathEntry, 0, searchPathCap)}
	initiator := PathEntry{Node: 0, Deg: 1, Parent: 0, Cursor: 1}
	for _, tc := range []struct {
		name   string
		from   int
		path   []PathEntry // the token's stack on arrival
		wantTo int
		want   []PathEntry // the stack it leaves with
	}{
		{"descent", 0, []PathEntry{initiator}, 2,
			[]PathEntry{initiator, {Node: 1, Deg: 4, Parent: 0, Cursor: 2}}},
		{"backtrack arrival to next child", 2,
			[]PathEntry{initiator, {Node: 1, Deg: 4, Parent: 0, Cursor: 2}}, 3,
			[]PathEntry{initiator, {Node: 1, Deg: 4, Parent: 0, Cursor: 3}}},
		{"backtrack", 4,
			[]PathEntry{initiator, {Node: 1, Deg: 4, Parent: 0, Cursor: 4}}, 0,
			[]PathEntry{initiator}},
	} {
		hop := func() {
			tok.Path = append(tok.Path[:0], tc.path...)
			x.Receive(ctx, tc.from, tok)
		}
		sentTo, sent = -1, nil
		hop()
		if sentTo != tc.wantTo || sent != sim.Message(tok) || !slices.Equal(tok.Path, tc.want) {
			t.Fatalf("%s: sent %v to %d with path %+v; want the same token to %d with path %+v",
				tc.name, sent, sentTo, tok.Path, tc.wantTo, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
			t.Errorf("%s: a Search hop allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// twinNode runs two copies of one node side by side: one built from the
// sorted neighbor list, one from a shuffled copy of it. Every step runs
// on both; the twins must send the same messages to the same neighbors
// in the same order and keep the same state. The sorted twin's sends go
// out on the network.
type twinNode struct {
	t                *testing.T
	sorted, shuffled *Node
	sentA, sentB     []sentMsg
	ctxA, ctxB       *sim.Context
}

func newTwinNode(t *testing.T, id int, nbrs []int, cfg Config, rng *rand.Rand,
	newNode func(int, []int, Config) *Node) *twinNode {
	shuf := slices.Clone(nbrs)
	rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	if len(shuf) > 1 && slices.IsSorted(shuf) {
		shuf[0], shuf[1] = shuf[1], shuf[0]
	}
	tw := &twinNode{t: t, sorted: newNode(id, nbrs, cfg), shuffled: newNode(id, shuf, cfg)}
	tw.ctxA = sim.NewContext(id, nbrs, func(_, to int, m sim.Message) { tw.sentA = append(tw.sentA, sentMsg{to, m}) })
	tw.ctxB = sim.NewContext(id, nbrs, func(_, to int, m sim.Message) { tw.sentB = append(tw.sentB, sentMsg{to, m}) })
	return tw
}

// corrupt draws the same arbitrary state into both twins.
func (tw *twinNode) corrupt(seed int64, idSpace int) {
	tw.sorted.Corrupt(rand.New(rand.NewSource(seed)), idSpace)
	tw.shuffled.Corrupt(rand.New(rand.NewSource(seed)), idSpace)
	tw.compare("corrupt")
}

// step runs f on both twins, compares what they did and forwards the
// sorted twin's sends.
func (tw *twinNode) step(ctx *sim.Context, what string, f func(n *Node, ctx *sim.Context)) {
	tw.sentA, tw.sentB = tw.sentA[:0], tw.sentB[:0]
	f(tw.sorted, tw.ctxA)
	f(tw.shuffled, tw.ctxB)
	tw.compare(what)
	for _, s := range tw.sentA {
		ctx.Send(s.to, s.msg)
	}
}

func (tw *twinNode) compare(what string) {
	tw.t.Helper()
	a, b := tw.sorted, tw.shuffled
	if a.Fingerprint() != b.Fingerprint() || a.NodeStats() != b.NodeStats() {
		tw.t.Fatalf("node %d after %s: state differs between sorted and shuffled neighbor lists", a.id, what)
	}
	if len(tw.sentA) != len(tw.sentB) {
		tw.t.Fatalf("node %d after %s: %d sends from the sorted list, %d from the shuffled one",
			a.id, what, len(tw.sentA), len(tw.sentB))
	}
	for i := range tw.sentA {
		sa := fmt.Sprintf("%d %T %+v", tw.sentA[i].to, tw.sentA[i].msg, tw.sentA[i].msg)
		sb := fmt.Sprintf("%d %T %+v", tw.sentB[i].to, tw.sentB[i].msg, tw.sentB[i].msg)
		if sa != sb {
			tw.t.Fatalf("node %d after %s: send %d is %s from the sorted list, %s from the shuffled one",
				a.id, what, i, sa, sb)
		}
	}
}

func (tw *twinNode) Tick(ctx *sim.Context) {
	tw.step(ctx, "tick", func(n *Node, c *sim.Context) { n.Tick(c) })
}

func (tw *twinNode) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	// The twins each hold their own Search token; every other message
	// is an immutable value.
	mb := m
	if tok, ok := m.(*SearchMsg); ok {
		cp := *tok
		cp.Path = slices.Clone(tok.Path)
		mb = &cp
	}
	tw.step(ctx, fmt.Sprintf("receive %T from %d", m, from), func(n *Node, c *sim.Context) {
		if n == tw.shuffled {
			n.Receive(c, from, mb)
		} else {
			n.Receive(c, from, m)
		}
	})
}

func (tw *twinNode) Fingerprint() uint64 { return tw.sorted.Fingerprint() }

// A node's behaviour does not depend on the order of the neighbor list
// it is built from: NewNode sorts it, and the position-indexed loops
// read view i for neighbor i. Every node of a corrupt-start recovery
// runs as a sorted/shuffled twin pair, with both exchanges.
func TestShuffledNeighborListSendsAlike(t *testing.T) {
	g, _ := graph.LookupFamily("ring+chords")
	for _, ex := range exchanges {
		t.Run(ex.name, func(t *testing.T) {
			gr := g.Build(16, rand.New(rand.NewSource(4)))
			cfg := DefaultConfig(gr.N())
			rng := rand.New(rand.NewSource(5))
			twins := make([]*twinNode, gr.N())
			net := sim.NewNetwork(gr, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
				twins[id] = newTwinNode(t, id, nbrs, cfg, rng, ex.newNode)
				return twins[id]
			}, 6)
			for id, tw := range twins {
				tw.corrupt(int64(100+id), gr.N())
			}
			res := net.Run(sim.RunConfig{Scheduler: sim.NewSyncScheduler(), MaxRounds: 20000,
				QuiesceRounds: 2*gr.N() + 40, ActiveKinds: ReductionKinds()})
			if !res.Converged {
				t.Fatal("twin network did not converge")
			}
			nodes := make([]*Node, len(twins))
			for i, tw := range twins {
				nodes[i] = tw.sorted
			}
			if leg := CheckLegitimacy(gr, nodes); !leg.OK() {
				t.Fatalf("converged to an illegitimate configuration: %s", leg.Detail)
			}
			if searches := net.Metrics().SentByKind[KindSearch]; searches == 0 {
				t.Fatal("the run sent no Search tokens: the twins were never compared on them")
			}
		})
	}
}

// The memoized parent position reads the parent's view, and the cached
// derived values match a fresh computation, after every kind of parent
// move: between neighbors, by rule R1, by an exchange hop, to a
// non-neighbor or to itself through SetState and Corrupt, and back.
func TestParentViewFollowsParentMoves(t *testing.T) {
	g := graph.Complete(5)
	cfg := DefaultConfig(g.N())
	n := NewNode(2, []int{4, 0, 3, 1}, cfg)
	ctx := sim.NewContext(2, g.Neighbors(2), func(int, int, sim.Message) {})
	setViews := func() {
		for _, u := range g.Neighbors(2) {
			n.SetView(u, View{Root: 0, Parent: u, Distance: 10 + u, Dmax: u, Submax: u})
		}
	}
	check := func(step string) {
		t.Helper()
		want := n.views.Get(n.parent)
		for i := 0; i < 2; i++ { // the second read hits the memo
			if got := n.parentView(); got != want {
				t.Fatalf("%s: parent %d read view %p, want %p", step, n.parent, got, want)
			}
		}
		wantDist := n.parent == n.id && n.distance == 0 ||
			want != nil && n.distance == want.Distance+1 && n.distance <= cfg.MaxDist
		if got := n.coherentDistance(); got != wantDist {
			t.Fatalf("%s: coherentDistance %v, want %v", step, got, wantDist)
		}
		checkDerived(t, n, step)
	}
	setViews()
	for _, p := range []int{0, 3, 1, 4, 3} {
		n.SetState(0, p, 11, 0, 0, false)
		check(fmt.Sprintf("SetState to neighbor %d", p))
	}
	n.SetState(0, 9, 11, 0, 0, false)
	check("SetState to non-neighbor 9")
	n.SetState(0, 1, 11, 0, 0, false)
	check("SetState back to neighbor 1")
	n.SetState(2, 2, 0, 0, 0, false)
	check("SetState to itself")
	n.changeParentTo(4)
	check("rule R1 move to 4")
	n.Receive(ctx, 0, ReverseMsg{Init: graph.Edge{U: 1, V: 3}, Nodes: []int{2, 4, 1}, Dist: 11})
	if n.parent != 0 {
		t.Fatalf("Reverse from 0 left parent %d", n.parent)
	}
	check("exchange hop to 0")
	moves := map[bool]int{}
	for seed := int64(0); seed < 200; seed++ {
		n.Corrupt(rand.New(rand.NewSource(seed)), 12)
		moves[n.views.Get(n.parent) != nil]++
		check(fmt.Sprintf("Corrupt seed %d", seed))
	}
	if moves[true] == 0 || moves[false] == 0 {
		t.Fatalf("Corrupt never moved the parent both onto and off the neighbors: %v", moves)
	}
	setViews()
	n.SetState(0, 3, 13, 0, 0, false)
	check("SetState back to a neighbor after Corrupt")
	n.runTreeModule()
	check("tree module")
}

// Node stays in the runtime's 416-byte size class. The closure workload
// builds 65,536 nodes per repetition, and a Node in the 448-byte class
// raised its allocation by about 2%. The five bools share one word.
func TestNodeSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size class is pinned on 64-bit platforms")
	}
	if size := unsafe.Sizeof(Node{}); size > 416 {
		t.Fatalf("core.Node is %d bytes, past the 416-byte size class", size)
	}
}

// BenchmarkRecover runs one corrupt-start recovery of a ring+chords
// n=32 instance per iteration with each exchange, on the sync compat
// loop, where the Tick and Receive handlers do most of the work. Every
// iteration replays the same run; msgs/op is its message count.
func BenchmarkRecover(b *testing.B) {
	fam, _ := graph.LookupFamily("ring+chords")
	g := fam.Build(32, rand.New(rand.NewSource(1)))
	for _, ex := range exchanges {
		b.Run(ex.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				net := buildNet(g, DefaultConfig(g.N()), 2, ex.newNode)
				corruptAll(net, rand.New(rand.NewSource(3)))
				if res := runToQuiescence(net, g, sim.NewSyncScheduler(), 0); !res.Converged {
					b.Fatal("recovery did not converge")
				}
				for _, c := range net.Metrics().SentByKind {
					msgs += c
				}
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
