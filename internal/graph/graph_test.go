package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for u := 0; u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Errorf("node %d: degree %d, want 0", u, g.Degree(u))
		}
	}
}

func TestAddEdgeBasic(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d, want 1", g.M())
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d after duplicate, want 1", g.M())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range node")
		}
	}()
	New(2).MustAddEdge(0, 5)
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false for present edge")
	}
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Fatal("edge not removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned true for absent edge")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1} {
		g.MustAddEdge(3, v)
	}
	nbrs := g.Neighbors(3)
	want := []int{1, 2, 4, 5}
	if len(nbrs) != len(want) {
		t.Fatalf("neighbors %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbors %v, want %v", nbrs, want)
		}
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(3, 1)
	for _, e := range g.Edges() {
		if e.U >= e.V {
			t.Errorf("edge %v not canonical", e)
		}
	}
	if len(g.Edges()) != 2 {
		t.Fatalf("got %d edges, want 2", len(g.Edges()))
	}
}

func TestEdgeNormalize(t *testing.T) {
	if (Edge{5, 2}).Normalize() != (Edge{2, 5}) {
		t.Fatal("Normalize failed")
	}
	if (Edge{2, 5}).Normalize() != (Edge{2, 5}) {
		t.Fatal("Normalize changed canonical edge")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.RemoveEdge(0, 1)
	if g.Equal(c) || !g.HasEdge(0, 1) {
		t.Fatal("clone not independent")
	}
}

func TestConnectivity(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	g.MustAddEdge(1, 2)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestSingleNodeConnected(t *testing.T) {
	if !New(1).IsConnected() || !New(0).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestBFSFrom(t *testing.T) {
	g := Path(5)
	parent, dist := g.BFSFrom(0)
	for i := 0; i < 5; i++ {
		if dist[i] != i {
			t.Errorf("dist[%d]=%d, want %d", i, dist[i], i)
		}
	}
	if parent[0] != 0 || parent[3] != 2 {
		t.Errorf("parents wrong: %v", parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	parent, dist := g.BFSFrom(0)
	if parent[2] != -1 || dist[2] != -1 {
		t.Fatal("unreachable node should have parent/dist -1")
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(6)
	if g.MaxDegree() != 5 || g.MinDegree() != 1 {
		t.Fatalf("star degrees max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
}

func TestIsBridge(t *testing.T) {
	g := Lollipop(4, 3)
	if !g.IsBridge(3, 4) {
		t.Fatal("tail edge should be a bridge")
	}
	if g.IsBridge(0, 1) {
		t.Fatal("clique edge should not be a bridge")
	}
	// IsBridge must not mutate.
	if !g.HasEdge(3, 4) || !g.HasEdge(0, 1) {
		t.Fatal("IsBridge mutated graph")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomGnp(20, 0.2, rng)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("round trip changed graph")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                      // no node count
		"e 0 1\n",               // edge before n
		"n 2\nn 3\n",            // duplicate n
		"n 2\ne 0 5\n",          // out of range
		"n 2\ne 0\n",            // malformed edge
		"n 2\nx 1 2\n",          // unknown directive
		"n 2\ne 0 1\ne 0 1\n",   // duplicate edge
		"n notanumber\n",        // bad count
		"n 3\ne 1 1\n",          // self loop
		"n 3\ne one two\n",      // non-numeric edge
		"n 3\ne 0 1 extra ok\n", // too many fields
		"n\n",                   // bare count
		"n -3\n",                // negative count
		"n 3000000000\n",        // count above MaxReadNodes
		"n 0x3\n",               // hex count
		"n 3x\n",                // trailing junk on the count
		"n 3\ne 0 1junk\n",      // trailing junk on an endpoint
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: no error", c)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	g, err := Read(strings.NewReader("# hello\nn 3\n\n# mid\ne 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
}

// Read must never panic, and whatever it accepts must survive a
// WriteTo/Read round trip with the same node count and edge list.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"n 3\ne 0 1\ne 1 2\n",
		"# comment\nn 0\n",
		"n 4\n\ne 3 0\n# mid\ne 1 2\n",
		"n\n",            // used to index a missing field
		"n -3\n",         // used to panic in New
		"n 3000000000\n", // used to allocate every node before reading an edge
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of %q: %v", buf.String(), err)
		}
		if h.N() != g.N() || !slices.Equal(h.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: n %d -> %d, edges %v -> %v", g.N(), h.N(), g.Edges(), h.Edges())
		}
	})
}

func TestDOT(t *testing.T) {
	g := Path(3)
	dot := g.DOT("p", map[Edge]bool{{0, 1}: true})
	if !strings.Contains(dot, "0 -- 1 [style=bold]") {
		t.Errorf("tree edge not bold:\n%s", dot)
	}
	if !strings.Contains(dot, "1 -- 2;") {
		t.Errorf("non-tree edge missing:\n%s", dot)
	}
}

// Property: handshake lemma holds for random graphs.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := RandomGnp(n, rng.Float64(), rng)
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency symmetry for random graphs.
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := RandomGnp(n, rng.Float64()*0.5, rng)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the node set.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		seen := make(map[int]bool)
		for _, comp := range g.Components() {
			for _, u := range comp {
				if seen[u] {
					return false
				}
				seen[u] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
