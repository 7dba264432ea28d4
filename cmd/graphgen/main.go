// Command graphgen emits workload graphs in the repository's edge-list
// format, as Graphviz DOT or as an SVG image. It exposes every generator
// family used by the experiments.
//
// Usage:
//
//	graphgen -family gnp -n 32 -seed 7 > g.edges
//	graphgen -family gnp -n 24 -dot > g.dot
//	graphgen -family geometric -n 32 -svg > g.svg
//	graphgen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mdst/internal/graph"
	"mdst/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "gnp", "workload family (see -list)")
	n := fs.Int("n", 32, "approximate node count")
	seed := fs.Int64("seed", 1, "generator seed")
	list := fs.Bool("list", false, "list families and exit")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of edge list")
	svg := fs.Bool("svg", false, "emit an SVG image (spring layout) instead of edge list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dot && *svg {
		fmt.Fprintln(stderr, "graphgen: -dot and -svg are exclusive")
		return 2
	}

	if *list {
		for _, f := range graph.Families() {
			fmt.Fprintln(stdout, f.Name)
		}
		return 0
	}
	var fam graph.Family
	found := false
	for _, f := range graph.Families() {
		if f.Name == *family {
			fam = f
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(stderr, "graphgen: unknown family %q (try -list)\n", *family)
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "graphgen: -n must be at least 1")
		return 2
	}
	g := fam.Build(*n, rand.New(rand.NewSource(*seed)))
	if *dot {
		fmt.Fprint(stdout, g.DOT(*family, nil))
		return 0
	}
	if *svg {
		title := fmt.Sprintf("%s n=%d m=%d", *family, g.N(), g.M())
		if err := viz.Render(stdout, g, nil, viz.Options{Layout: "spring", Title: title}); err != nil {
			fmt.Fprintln(stderr, "graphgen:", err)
			return 1
		}
		return 0
	}
	if _, err := g.WriteTo(stdout); err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		return 1
	}
	return 0
}
