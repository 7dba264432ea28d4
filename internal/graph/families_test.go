package graph

import (
	"math/rand"
	"testing"
)

func TestLookupFamilySweepAndExtras(t *testing.T) {
	if _, ok := LookupFamily("gnp"); !ok {
		t.Fatal("sweep family gnp not found")
	}
	for _, name := range []string{"wheel", "complete", "regular"} {
		f, ok := LookupFamily(name)
		if !ok {
			t.Fatalf("extra family %q not found", name)
		}
		if f.Name != name {
			t.Fatalf("name mismatch: %q", f.Name)
		}
	}
	if _, ok := LookupFamily("nope"); ok {
		t.Fatal("unknown family found")
	}
}

func TestExtraFamiliesBuildConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, f := range ExtraFamilies() {
		for _, n := range []int{8, 17} {
			g := f.Build(n, rng)
			if !g.IsConnected() {
				t.Fatalf("family %s n=%d: disconnected", f.Name, n)
			}
			if g.N() < 4 {
				t.Fatalf("family %s n=%d: only %d nodes", f.Name, n, g.N())
			}
		}
	}
}

// Every family builds a connected graph at the smallest sizes a CLI
// accepts; a family may round the count up.
func TestFamiliesBuildTinySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range append(Families(), ExtraFamilies()...) {
		for _, n := range []int{1, 2, 3} {
			g := f.Build(n, rng)
			if g.N() < 1 || !g.IsConnected() {
				t.Fatalf("family %s n=%d: %d nodes, connected=%v", f.Name, n, g.N(), g.IsConnected())
			}
		}
	}
}

func TestExtraFamiliesNotInSweep(t *testing.T) {
	// The extras must not silently join the default experiment sweep:
	// committed table shapes depend on Families() being stable.
	sweep := map[string]bool{}
	for _, f := range Families() {
		sweep[f.Name] = true
	}
	for _, f := range ExtraFamilies() {
		if sweep[f.Name] {
			t.Fatalf("extra family %q shadows a sweep family", f.Name)
		}
	}
	if len(Families()) != 7 {
		t.Fatalf("sweep families = %d, want 7", len(Families()))
	}
}
