package core

import (
	"testing"

	"mdst/internal/graph"
)

// TestBackoffDeepensToCapAndNeighborBumpResets drives one node's
// adaptive suppression schedule through its whole life cycle: while the
// node's state version is a fixed point, every full effective window
// that lapses before an equivalent launch doubles the pruning window
// (4 → 8 → 16 → 32 → 64 at SearchPeriod 1), saturating at
// BackoffCapWindow; then a single neighbor version bump at the deepest
// tier collapses the window back to the base instantly — the very next
// launch decision passes, before any tick runs.
func TestBackoffDeepensToCapAndNeighborBumpResets(t *testing.T) {
	g := graph.Wheel(8)
	cfg := DefaultConfig(8)
	cfg.Retry = RetryBackoff
	cfg.SearchPeriod = 1
	net := BuildNetwork(g, cfg, 1)
	tr := preload(t, g, net)
	nodes := NodesOf(net)

	nte := tr.NonTreeEdges()
	if len(nte) == 0 {
		t.Fatal("wheel tree must leave non-tree edges")
	}
	u, v := nte[0].U, nte[0].V
	nd := nodes[u]
	ctx := net.Context(u)

	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("initial retry period %d, want base %d", got, cfg.PruneWindow())
	}

	// First launch: no record yet, passes without deepening.
	nd.startSearch(ctx, v, -1, 0)
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("first pass deepened the schedule to %d", got)
	}

	// Each round trip: a launch one tick inside the effective window is
	// pruned; the launch at window expiry passes and earns exactly one
	// doubling, saturating at the cap.
	for i, want := range []struct{ window, next int }{
		{4, 8}, {8, 16}, {16, 32}, {32, 64}, {64, 64},
	} {
		if got := nd.CurrentRetryPeriod(); got != want.window {
			t.Fatalf("step %d: retry period %d, want %d", i, got, want.window)
		}
		st := nd.NodeStats()
		nd.tick += want.window - 1
		nd.startSearch(ctx, v, -1, 0)
		mid := nd.NodeStats()
		if mid.SearchesLaunched != st.SearchesLaunched {
			t.Fatalf("step %d: launch inside the %d-tick window not pruned", i, want.window)
		}
		if mid.SearchesSuppressed != st.SearchesSuppressed+1 {
			t.Fatalf("step %d: suppressed counter %d, want +1", i, mid.SearchesSuppressed)
		}
		nd.tick++
		nd.startSearch(ctx, v, -1, 0)
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

	// At the deepest tier, one tick after the last pass: still pruned.
	nd.tick++
	st := nd.NodeStats()
	nd.startSearch(ctx, v, -1, 0)
	if after := nd.NodeStats(); after.SearchesLaunched != st.SearchesLaunched {
		t.Fatal("launch at the deepest tier not pruned inside the cap window")
	}

	// Neighbor version bump (a changed view applied by gossip): the
	// schedule collapses to the base before any tick runs, and the very
	// same launch that was just pruned now passes.
	w, ok := nd.ViewOf(nd.nbrs[0])
	if !ok {
		t.Fatal("no view of first neighbor")
	}
	w.Submax++
	nd.SetView(nd.nbrs[0], w)
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("retry period %d after neighbor bump, want base %d", got, cfg.PruneWindow())
	}
	st = nd.NodeStats()
	nd.startSearch(ctx, v, -1, 0)
	if after := nd.NodeStats(); after.SearchesLaunched != st.SearchesLaunched+1 {
		t.Fatal("launch after neighbor version bump still pruned")
	}
	if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
		t.Fatalf("retry period %d after recovery pass, want base %d", got, cfg.PruneWindow())
	}
}

// TestBackoffOffIsInert: under RetrySuppress the pruning window never
// moves off the base — the committed baselines depend on static
// suppression being unchanged by the backoff code path.
func TestBackoffOffIsInert(t *testing.T) {
	g := graph.Wheel(8)
	cfg := DefaultConfig(8)
	cfg.Retry = RetrySuppress
	net := BuildNetwork(g, cfg, 1)
	tr := preload(t, g, net)
	nodes := NodesOf(net)

	nte := tr.NonTreeEdges()
	u, v := nte[0].U, nte[0].V
	nd := nodes[u]
	ctx := net.Context(u)
	for i := 0; i < 6; i++ {
		nd.startSearch(ctx, v, -1, 0)
		if got := nd.CurrentRetryPeriod(); got != cfg.PruneWindow() {
			t.Fatalf("lapse %d moved the static retry period to %d", i, got)
		}
		if nd.backoffTier != 0 {
			t.Fatalf("lapse %d earned tier %d with backoff off", i, nd.backoffTier)
		}
		nd.tick += cfg.PruneWindow()
	}
}
