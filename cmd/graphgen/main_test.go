package main

import (
	"bytes"
	"strings"
	"testing"

	"mdst/internal/graph"
)

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gnp") || !strings.Contains(out.String(), "geometric") {
		t.Fatalf("missing families:\n%s", out.String())
	}
}

func TestRunEdgeListRoundTrips(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "grid", "-n", "16"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	g, err := graph.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || !g.IsConnected() {
		t.Fatalf("bad graph n=%d", g.N())
	}
}

func TestRunDOT(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "ring+chords", "-n", "8", "-dot"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out.String(), "graph ring+chords {") {
		t.Fatalf("not DOT:\n%s", out.String()[:40])
	}
}

// -svg draws the network alone: thin grey edges, no thick tree edges.
func TestRunSVG(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "grid", "-n", "9", "-svg"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	svg := out.String()
	if !strings.HasPrefix(svg, "<svg ") || !strings.Contains(svg, "grid n=9 m=12") {
		t.Fatalf("not a titled SVG:\n%.80s", svg)
	}
	if strings.Contains(svg, `stroke-width="3"`) {
		t.Fatal("tree edges drawn for a bare graph")
	}
	if code := run([]string{"-dot", "-svg"}, &out, &errOut); code != 2 {
		t.Fatalf("-dot -svg: exit %d, want 2", code)
	}
}

func TestRunUnknownFamily(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown family") {
		t.Fatal("no error message")
	}
}

// A node count below one exits 2 with a message instead of panicking.
func TestRunBadNodeCount(t *testing.T) {
	for _, n := range []string{"-3", "0"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-n", n}, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("-n %s: exit %d, stderr %q; want exit 2 with a message", n, code, errOut.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	gen := func() string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-family", "gnp", "-n", "20", "-seed", "5"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d", code)
		}
		return out.String()
	}
	if gen() != gen() {
		t.Fatal("same seed, different output")
	}
}
