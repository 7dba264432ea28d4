package viz

import (
	"bytes"
	"strings"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/spanning"
)

func TestRenderGraphOnly(t *testing.T) {
	g := graph.Ring(6)
	var buf bytes.Buffer
	if err := Render(&buf, g, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(out, "<line") != 6 {
		t.Fatalf("want 6 edges, got %d", strings.Count(out, "<line"))
	}
	if strings.Count(out, "<circle") != 6 {
		t.Fatalf("want 6 nodes, got %d", strings.Count(out, "<circle"))
	}
}

func TestRenderWithTree(t *testing.T) {
	g := graph.Wheel(8)
	tr := spanning.BFSTree(g, 0)
	var buf bytes.Buffer
	if err := Render(&buf, g, tr, Options{Title: "wheel <8>"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 7 thick tree edges + the rest thin.
	if got := strings.Count(out, `stroke-width="3"`); got != 7 {
		t.Fatalf("tree edges %d, want 7", got)
	}
	if strings.Count(out, `stroke-width="1"`) < g.M()-7 {
		t.Fatal("non-tree edges missing")
	}
	// Title escaped.
	if !strings.Contains(out, "wheel &lt;8&gt;") {
		t.Fatal("title not escaped")
	}
}

func TestRenderSpringLayout(t *testing.T) {
	g := graph.Grid(3, 3)
	tr := spanning.BFSTree(g, 0)
	var buf bytes.Buffer
	if err := Render(&buf, g, tr, Options{Layout: "spring"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `width="720"`) {
		t.Fatal("canvas size not applied")
	}
}

func TestRenderTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.New(1), graph.Path(2)} {
		var buf bytes.Buffer
		if err := Render(&buf, g, nil, Options{Layout: "spring"}); err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
	}
}

func TestHeatRange(t *testing.T) {
	lo := heat(1, 5)
	hi := heat(5, 5)
	if lo == hi {
		t.Fatal("heat does not differentiate")
	}
	if heat(1, 1) == "" || heat(7, 5) == "" {
		t.Fatal("degenerate inputs must still render")
	}
}
