// Package viz renders a graph and a spanning tree as an SVG image using
// only the standard library: non-tree edges are drawn thin and grey,
// tree edges thick, nodes colored by their tree degree (the quantity the
// paper minimizes), making degree hotspots visible at a glance.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mdst/internal/graph"
	"mdst/internal/spanning"
)

// canvasSize is the side of the square canvas in pixels.
const canvasSize = 720

// Options controls the rendering.
type Options struct {
	// Layout chooses node placement: "circle" (default) or "spring".
	Layout string
	// Title is drawn in the top-left corner when non-empty.
	Title string
}

// Render writes an SVG of g (and, if tree is non-nil, of the tree
// embedded in it) to w.
func Render(w io.Writer, g *graph.Graph, tree *spanning.Tree, opt Options) error {
	var pos [][2]float64
	if opt.Layout == "spring" {
		pos = springLayout(g)
	} else {
		pos = circleLayout(g.N())
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		canvasSize, canvasSize, canvasSize, canvasSize)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	var treeSet map[graph.Edge]bool
	var degs []int
	maxDeg := 1
	if tree != nil {
		treeSet = tree.EdgeSet()
		degs = tree.Degrees()
		for _, d := range degs {
			if d > maxDeg {
				maxDeg = d
			}
		}
	}
	// Non-tree edges first (underneath).
	for _, e := range g.Edges() {
		if treeSet != nil && treeSet[e] {
			continue
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#cccccc" stroke-width="1"/>`+"\n",
			pos[e.U][0], pos[e.U][1], pos[e.V][0], pos[e.V][1])
	}
	for e := range treeSet {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#2255cc" stroke-width="3"/>`+"\n",
			pos[e.U][0], pos[e.U][1], pos[e.V][0], pos[e.V][1])
	}
	// Nodes colored by tree degree: green (low) to red (max).
	r := float64(canvasSize) / 60
	for v := 0; v < g.N(); v++ {
		fill := "#888888"
		if degs != nil {
			fill = heat(degs[v], maxDeg)
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="black" stroke-width="1"/>`+"\n",
			pos[v][0], pos[v][1], r, fill)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="%.0f" text-anchor="middle" dy=".3em">%d</text>`+"\n",
			pos[v][0], pos[v][1], r, v)
	}
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="8" y="18" font-size="14" font-family="monospace">%s</text>`+"\n",
			escape(opt.Title))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// heat maps degree d in [1,max] to a green-to-red hex color.
func heat(d, max int) string {
	if max <= 1 {
		max = 2
	}
	t := float64(d-1) / float64(max-1)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	rr := int(80 + t*175)
	gg := int(200 - t*160)
	return fmt.Sprintf("#%02x%02x40", rr, gg)
}

// escape sanitizes text content for XML.
func escape(s string) string {
	repl := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return repl.Replace(s)
}

// circleLayout places n nodes on a circle.
func circleLayout(n int) [][2]float64 {
	pos := make([][2]float64, n)
	c := float64(canvasSize) / 2
	rad := c * 0.85
	for v := 0; v < n; v++ {
		a := 2 * math.Pi * float64(v) / float64(maxInt(n, 1))
		pos[v] = [2]float64{c + rad*math.Cos(a), c + rad*math.Sin(a)}
	}
	return pos
}

// springLayout runs a small deterministic Fruchterman–Reingold-style
// relaxation seeded from the circle layout.
func springLayout(g *graph.Graph) [][2]float64 {
	n := g.N()
	pos := circleLayout(n)
	if n < 3 {
		return pos
	}
	area := float64(canvasSize) * float64(canvasSize)
	k := math.Sqrt(area / float64(n))
	disp := make([][2]float64, n)
	for iter := 0; iter < 120; iter++ {
		for i := range disp {
			disp[i] = [2]float64{}
		}
		// Repulsion.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				dx := pos[u][0] - pos[v][0]
				dy := pos[u][1] - pos[v][1]
				d := math.Hypot(dx, dy) + 1e-9
				f := k * k / d
				disp[u][0] += dx / d * f
				disp[u][1] += dy / d * f
				disp[v][0] -= dx / d * f
				disp[v][1] -= dy / d * f
			}
		}
		// Attraction along edges.
		for _, e := range g.Edges() {
			dx := pos[e.U][0] - pos[e.V][0]
			dy := pos[e.U][1] - pos[e.V][1]
			d := math.Hypot(dx, dy) + 1e-9
			f := d * d / k
			disp[e.U][0] -= dx / d * f
			disp[e.U][1] -= dy / d * f
			disp[e.V][0] += dx / d * f
			disp[e.V][1] += dy / d * f
		}
		// Bounded displacement with cooling.
		temp := float64(canvasSize) / 10 * (1 - float64(iter)/120)
		for v := 0; v < n; v++ {
			dx, dy := disp[v][0], disp[v][1]
			d := math.Hypot(dx, dy) + 1e-9
			step := math.Min(d, temp)
			pos[v][0] += dx / d * step
			pos[v][1] += dy / d * step
			pos[v][0] = clamp(pos[v][0], 20, canvasSize-20)
			pos[v][1] = clamp(pos[v][1], 20, canvasSize-20)
		}
	}
	return pos
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
