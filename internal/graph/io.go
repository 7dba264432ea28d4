package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Serialization: a tiny line-oriented edge-list format and a Graphviz DOT
// exporter, used by cmd/graphgen and the examples.
//
// Format:
//
//	# comment
//	n <nodes>
//	e <u> <v>
//
// Order of "e" lines is irrelevant; "n" must come first.

// MaxReadNodes bounds the node count Read accepts. It is 64 times the
// largest graph the repo builds (n=16384), and it keeps a corrupt count
// from making Read allocate one adjacency list per node before any edge
// is read.
const MaxReadNodes = 1 << 20

// WriteTo serializes g in edge-list format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "n %d\n", g.n)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range g.Edges() {
		n, err = fmt.Fprintf(w, "e %d %d\n", e.U, e.V)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read parses a graph in edge-list format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate node count", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad node count", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > MaxReadNodes {
				return nil, fmt.Errorf("graph: line %d: bad node count (want 0..%d)", line, MaxReadNodes)
			}
			g = New(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before node count", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: bad edge", line)
			}
			u, errU := strconv.Atoi(fields[1])
			v, errV := strconv.Atoi(fields[2])
			if errU != nil || errV != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
			}
			if u < 0 || u >= g.n || v < 0 || v >= g.n {
				return nil, fmt.Errorf("graph: line %d: edge {%d,%d} out of range", line, u, v)
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing node count")
	}
	return g, nil
}

// DOT renders the graph in Graphviz format. If treeEdges is non-nil,
// edges present in the set (canonical form) are drawn bold — used to
// visualize a spanning tree over its graph.
func (g *Graph) DOT(name string, treeEdges map[Edge]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for u := 0; u < g.n; u++ {
		fmt.Fprintf(&b, "  %d;\n", u)
	}
	for _, e := range g.Edges() {
		if treeEdges != nil && treeEdges[e.Normalize()] {
			fmt.Fprintf(&b, "  %d -- %d [style=bold];\n", e.U, e.V)
		} else {
			fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
