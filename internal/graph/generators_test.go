package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPath(t *testing.T) {
	g := Path(5)
	if g.M() != 4 || !g.IsConnected() {
		t.Fatalf("path: m=%d connected=%v", g.M(), g.IsConnected())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatal("path degrees wrong")
	}
}

func TestRing(t *testing.T) {
	g := Ring(6)
	if g.M() != 6 {
		t.Fatalf("ring m=%d, want 6", g.M())
	}
	for u := 0; u < 6; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("ring degree(%d)=%d", u, g.Degree(u))
		}
	}
}

func TestRingTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ring(2) should panic")
		}
	}()
	Ring(2)
}

func TestStar(t *testing.T) {
	g := Star(7)
	if g.Degree(0) != 6 || g.M() != 6 {
		t.Fatal("star shape wrong")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 {
		t.Fatalf("K6 m=%d, want 15", g.M())
	}
	if g.MinDegree() != 5 {
		t.Fatal("K6 degree wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid n=%d", g.N())
	}
	// m = rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17
	if g.M() != 17 {
		t.Fatalf("grid m=%d, want 17", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("grid disconnected")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4 n=%d m=%d", g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatal("Q4 not 4-regular")
		}
	}
	if !g.IsConnected() {
		t.Fatal("Q4 disconnected")
	}
}

func TestWheel(t *testing.T) {
	g := Wheel(7)
	if g.Degree(0) != 6 {
		t.Fatal("hub degree wrong")
	}
	for u := 1; u < 7; u++ {
		if g.Degree(u) != 3 {
			t.Fatalf("rim degree(%d)=%d, want 3", u, g.Degree(u))
		}
	}
}

func TestRingWithChords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RingWithChords(12, 5, rng)
	if g.M() != 17 {
		t.Fatalf("m=%d, want 17", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
	// Asking for more chords than possible must clamp, not loop forever.
	h := RingWithChords(5, 1000, rng)
	if h.M() != 10 { // K5
		t.Fatalf("clamped m=%d, want 10", h.M())
	}
}

func TestRandomGnpConnected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGnp(30, 0.05, rng)
		if !g.IsConnected() {
			t.Fatalf("seed %d: G(n,p) not connected", seed)
		}
		if g.N() != 30 {
			t.Fatalf("n=%d", g.N())
		}
	}
}

func TestRandomGnpDeterministic(t *testing.T) {
	a := RandomGnp(25, 0.2, rand.New(rand.NewSource(42)))
	b := RandomGnp(25, 0.2, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometric(40, 0.15, rng) // small radius: stitching must kick in
		if !g.IsConnected() {
			t.Fatalf("seed %d: geometric graph not connected", seed)
		}
	}
}

func TestHamiltonianAugmented(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := HamiltonianAugmented(20, 10, rng)
	if g.M() != 19+10 {
		t.Fatalf("m=%d, want 29", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
	// Clamp check.
	h := HamiltonianAugmented(4, 1000, rng)
	if h.M() != 6 {
		t.Fatalf("clamped m=%d, want 6", h.M())
	}
}

func TestStarOfCliques(t *testing.T) {
	g := StarOfCliques(3, 4)
	if g.N() != 13 {
		t.Fatalf("n=%d, want 13", g.N())
	}
	if g.Degree(0) != 3 {
		t.Fatalf("hub degree %d, want 3", g.Degree(0))
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(4, 3)
	if g.N() != 7 || !g.IsConnected() {
		t.Fatal("lollipop wrong")
	}
	if g.Degree(6) != 1 {
		t.Fatal("tail end degree wrong")
	}
}

func TestFamiliesAllConnected(t *testing.T) {
	for _, f := range Families() {
		for _, n := range []int{10, 24, 40} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := f.Build(n, rng)
			if !g.IsConnected() {
				t.Errorf("family %s n=%d: not connected", f.Name, n)
			}
			if g.N() < n/2 {
				t.Errorf("family %s n=%d: produced only %d nodes", f.Name, n, g.N())
			}
		}
	}
}

func TestMustFamily(t *testing.T) {
	if MustFamily("grid").Name != "grid" {
		t.Fatal("lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown family should panic")
		}
	}()
	MustFamily("nope")
}

// Property: generators always produce simple graphs (no dup/self edges is
// guaranteed by AddEdge; check edge count consistency instead).
func TestQuickGeneratorEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := HamiltonianAugmented(n, rng.Intn(n), rng)
		return len(g.Edges()) == g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
