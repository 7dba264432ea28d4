// Command mdstviz stabilizes the protocol on a workload and renders the
// result as an SVG: thin grey edges are the network, thick blue edges
// the stabilized minimum-degree spanning tree, node colors the tree
// degree (green = leaf, red = maximum). Writes SVG to stdout.
//
// With -live the protocol runs on the goroutine-per-node runtime
// instead of the deterministic simulator, and the command polls the live
// metrics stream while it stabilizes: each detection-probe snapshot is
// printed to stderr (version-vector fill, stability-window position,
// in-flight deficit, messages sent), so convergence is watchable in real
// time; the SVG of the stabilized tree still goes to stdout.
//
// Usage:
//
//	mdstviz -family geometric -n 32 -layout spring > tree.svg
//	mdstviz -family wheel... (see graphgen -list for families)
//	mdstviz -family gnp -n 24 -live > tree.svg   # watch the stream on stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/metrics"
	"mdst/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdstviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "geometric", "workload family (see graphgen -list)")
	n := fs.Int("n", 32, "approximate node count")
	seed := fs.Int64("seed", 1, "seed")
	layout := fs.String("layout", "spring", "node layout: circle|spring")
	size := fs.Int("size", 720, "canvas size in pixels")
	raw := fs.Bool("graph-only", false, "skip the protocol; draw only the network")
	live := fs.Bool("live", false, "run on the goroutine-per-node runtime and stream live metrics snapshots to stderr while stabilizing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fam, ok := graph.LookupFamily(*family)
	if !ok {
		fmt.Fprintln(stderr, "mdstviz: unknown -family", *family)
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "mdstviz: -n must be at least 1")
		return 2
	}
	g := fam.Build(*n, rand.New(rand.NewSource(*seed)))

	opt := viz.Options{Size: *size, Layout: *layout}
	if *raw {
		opt.Title = fmt.Sprintf("%s n=%d m=%d", *family, g.N(), g.M())
		if err := viz.Render(stdout, g, nil, opt); err != nil {
			fmt.Fprintln(stderr, "mdstviz:", err)
			return 1
		}
		return 0
	}

	spec := harness.RunSpec{
		Graph:     g,
		Scheduler: harness.SchedSync,
		Start:     harness.StartCorrupt,
		Seed:      *seed,
	}
	if *live {
		spec.Backend = harness.BackendLive
		spec.Collect = &metrics.Collector{OnSnapshot: func(s metrics.Snapshot) {
			fmt.Fprintf(stderr, "mdstviz: epoch=%d fill=%.2f stable=%d/%d deficit=%d sent=%d\n",
				s.Epoch, s.VersionFill, s.Stable, s.Window, s.Deficit, s.SentTotal)
		}}
	}
	res, err := harness.Run(spec)
	if err != nil {
		fmt.Fprintln(stderr, "mdstviz:", err)
		return 1
	}
	if *live {
		fmt.Fprintf(stderr, "mdstviz: audit chain %016x over %d mutation(s)\n",
			res.AuditChain, res.AuditRecords)
	}
	if res.Tree == nil {
		fmt.Fprintf(stderr, "mdstviz: no tree: %+v\n", res.Legit)
		return 1
	}
	opt.Title = fmt.Sprintf("%s n=%d m=%d deg(T)=%d rounds=%d",
		*family, g.N(), g.M(), res.Tree.MaxDegree(), res.LastChange)
	if err := viz.Render(stdout, g, res.Tree, opt); err != nil {
		fmt.Fprintln(stderr, "mdstviz:", err)
		return 1
	}
	return 0
}
