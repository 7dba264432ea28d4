package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
