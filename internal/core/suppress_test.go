package core

import (
	"testing"

	"mdst/internal/graph"
)

// TestSuppressDuplicateLaunch: an equivalent Search launched again
// within the window with unchanged local state is pruned at the
// initiator; after the window it passes again — suppression is a
// bounded delay, never a permanent block.
func TestSuppressDuplicateLaunch(t *testing.T) {
	g := graph.Wheel(8)
	cfg := DefaultConfig(8)
	cfg.Retry = RetrySuppress
	cfg.SuppressWindow = 10
	net := BuildNetwork(g, cfg, 1)
	preload(t, g, net)
	nodes := NodesOf(net)

	tr, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	nte := tr.NonTreeEdges()
	if len(nte) == 0 {
		t.Fatal("wheel tree must leave non-tree edges")
	}
	u, v := nte[0].U, nte[0].V
	ctx := net.Context(u)

	before := nodes[u].NodeStats()
	nodes[u].startSearch(ctx, v, -1, 0)
	nodes[u].startSearch(ctx, v, -1, 0)
	after := nodes[u].NodeStats()
	if got := after.SearchesLaunched - before.SearchesLaunched; got != 1 {
		t.Fatalf("launched %d tokens, want 1 (duplicate pruned)", got)
	}
	if got := after.SearchesSuppressed - before.SearchesSuppressed; got != 1 {
		t.Fatalf("suppressed counter %d, want 1", got)
	}

	// Advance past the window (ticks only; the node's state is already
	// stable so versions stay put) and retry: the launch must pass.
	for i := 0; i < cfg.SuppressWindow+1; i++ {
		nodes[u].tick++
	}
	nodes[u].startSearch(ctx, v, -1, 0)
	final := nodes[u].NodeStats()
	if got := final.SearchesLaunched - after.SearchesLaunched; got != 1 {
		t.Fatalf("post-window launch pruned: %d launches", got)
	}
}

// TestSuppressReleasedByStateChange: a local state change (version bump)
// re-enables an otherwise-suppressed key immediately — suppression never
// hides a cycle whose classification could have changed.
func TestSuppressReleasedByStateChange(t *testing.T) {
	g := graph.Wheel(8)
	cfg := DefaultConfig(8)
	cfg.Retry = RetrySuppress
	net := BuildNetwork(g, cfg, 1)
	preload(t, g, net)
	nodes := NodesOf(net)

	tr, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	nte := tr.NonTreeEdges()
	u, v := nte[0].U, nte[0].V
	ctx := net.Context(u)

	nodes[u].startSearch(ctx, v, -1, 0)
	// Any real state write moves the version; SetView is one.
	w, _ := nodes[u].ViewOf(nodes[u].nbrs[0])
	w.Submax++
	nodes[u].SetView(nodes[u].nbrs[0], w)
	before := nodes[u].NodeStats()
	nodes[u].startSearch(ctx, v, -1, 0)
	after := nodes[u].NodeStats()
	if got := after.SearchesLaunched - before.SearchesLaunched; got != 1 {
		t.Fatalf("launch after state change pruned: %d launches", got)
	}
}

// TestSuppressBacktrackNeverPruned: a single token's own DFS walk
// revisits nodes on backtrack; those arrivals must never be pruned or
// the walk dies mid-search. The theta-graph improvement of
// TestSearchTokenFindsCyclePath must therefore complete unchanged with
// suppression on.
func TestSuppressBacktrackNeverPruned(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	cfg := DefaultConfig(5)
	cfg.Retry = RetrySuppress
	net := BuildNetwork(g, cfg, 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 1}})
	loadTree(g, net, tree)

	nodes[0].startSearch(net.Context(0), 3, -1, 0)
	drain(net, 10000)
	extracted, err := ExtractTree(g, nodes)
	if err != nil {
		t.Fatalf("tree broken after suppressed-mode search: %v", err)
	}
	if d := extracted.Degree(1); d != 2 {
		t.Fatalf("node 1 degree %d, want 2 after improvement", d)
	}
	if !extracted.HasTreeEdge(0, 3) {
		t.Fatal("improving edge {0,3} not in tree")
	}
}

// TestSearchBatchPacesLaunches: with suppression on, at most SearchBatch
// plain searches leave per tick; the deferred edges stay due and launch
// on the following ticks instead of being dropped.
func TestSearchBatchPacesLaunches(t *testing.T) {
	// Tree path 0-1-2-3 branching at 3 (dmax=4 > 2, so searches run) plus
	// three non-tree chords from 0 toward higher IDs — all due at once.
	g := graph.New(7)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(3, 5)
	g.MustAddEdge(3, 6)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(0, 5)
	g.MustAddEdge(0, 6)
	cfg := DefaultConfig(7)
	cfg.Retry = RetrySuppress
	cfg.SearchBatch = 1
	cfg.SuppressWindow = 1 << 20 // isolate pacing from window expiry
	net := BuildNetwork(g, cfg, 1)
	tree := chainTree(t, g, [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 3}, {6, 3}})
	loadTree(g, net, tree)
	nodes := NodesOf(net)

	ctx := net.Context(0)
	before := nodes[0].NodeStats().SearchesLaunched
	nodes[0].Tick(ctx)
	perTick := nodes[0].NodeStats().SearchesLaunched - before
	if perTick > 1 {
		t.Fatalf("batch=1 launched %d searches in one tick", perTick)
	}
	// Subsequent ticks drain the deferred edges one by one.
	total := perTick
	for i := 0; i < 8; i++ {
		prev := nodes[0].NodeStats().SearchesLaunched
		nodes[0].Tick(ctx)
		d := nodes[0].NodeStats().SearchesLaunched - prev
		if d > 1 {
			t.Fatalf("tick %d launched %d searches with batch=1", i, d)
		}
		total += d
	}
	if total != 3 {
		t.Fatalf("launched %d searches over the paced ticks, want all 3 chords", total)
	}
}

// TestSuppressionOffIsInert: under RetryPaper the maps stay nil, the
// counter stays zero and Clone round-trips — the committed baselines
// depend on the paper schedule being byte-identical to the
// pre-suppression code.
func TestSuppressionOffIsInert(t *testing.T) {
	g := graph.Wheel(8)
	net := BuildNetwork(g, DefaultConfig(8), 1)
	preload(t, g, net)
	nodes := NodesOf(net)
	for i := 0; i < 100; i++ {
		for id := range nodes {
			net.Tick(id)
		}
		drain(net, 1<<20)
	}
	st := AggregateStats(nodes)
	if st.SearchesSuppressed != 0 {
		t.Fatalf("suppression counter %d under RetryPaper", st.SearchesSuppressed)
	}
	if nodes[0].suppress != nil {
		t.Fatal("suppressor allocated under RetryPaper")
	}
	c := nodes[0].Clone()
	if c.suppress != nil {
		t.Fatal("Clone allocated a suppressor under RetryPaper")
	}
}

// ParseRetryPolicy reads back every name String prints and rejects
// on, off and the empty string.
func TestParseRetryPolicyRoundTrips(t *testing.T) {
	for _, p := range []RetryPolicy{RetryPaper, RetrySuppress, RetryBackoff} {
		got, err := ParseRetryPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseRetryPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, bad := range []string{"on", "off", ""} {
		if p, err := ParseRetryPolicy(bad); err == nil {
			t.Fatalf("ParseRetryPolicy(%q) accepted as %v", bad, p)
		}
	}
}
