package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(2, 3)
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("K23 n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("bipartition wrong")
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(4, 3)
	if g.N() != 10 {
		t.Fatalf("n=%d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
	// The bridge path edges are bridges.
	bridges := g.Bridges()
	if len(bridges) != 3 {
		t.Fatalf("bridges=%v, want 3", bridges)
	}
}

func TestBarbellDirectJoin(t *testing.T) {
	g := Barbell(3, 1)
	if g.N() != 6 || !g.IsConnected() {
		t.Fatal("barbell-1 wrong")
	}
	if len(g.Bridges()) != 1 {
		t.Fatalf("bridges=%v", g.Bridges())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(4)
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(14) != 1 {
		t.Fatal("degrees wrong")
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
}

func TestRandomRegular(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomRegular(16, 4, rng)
		if !g.IsConnected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
		// The pairing model gives exact regularity; the fallback may be
		// slightly irregular but must stay within degree d.
		for v := 0; v < 16; v++ {
			if g.Degree(v) > 4 || g.Degree(v) < 2 {
				t.Fatalf("seed %d: degree(%d)=%d", seed, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d should panic")
		}
	}()
	RandomRegular(5, 3, rand.New(rand.NewSource(1)))
}

func TestBridgesPath(t *testing.T) {
	g := Path(4)
	br := g.Bridges()
	if len(br) != 3 {
		t.Fatalf("bridges %v", br)
	}
}

func TestBridgesRingNone(t *testing.T) {
	if br := Ring(5).Bridges(); len(br) != 0 {
		t.Fatalf("ring bridges %v", br)
	}
}

// Property: Bridges agrees with the brute-force IsBridge check.
func TestQuickBridgesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := RandomGnp(n, 0.25, rng)
		set := make(map[Edge]bool)
		for _, e := range g.Bridges() {
			set[e] = true
		}
		for _, e := range g.Edges() {
			if g.IsBridge(e.U, e.V) != set[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
