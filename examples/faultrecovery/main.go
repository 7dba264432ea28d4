// Transient-fault recovery demo (Definition 1 of the paper): starting
// from a legitimate configuration, corrupt an increasing number of nodes
// and watch the protocol converge back, printing a recovery timeline per
// fault size. This is the self-stabilization property made visible.
//
//	go run ./examples/faultrecovery [-n 36]
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/metrics"
)

func main() {
	n := flag.Int("n", 36, "network size")
	seed := flag.Int64("seed", 3, "seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	g := graph.RandomGnp(*n, 0.15, rng)
	fmt.Printf("network: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("%-8s %-10s %-10s %-8s %s\n", "faults", "recovery", "messages", "degree", "legitimate")

	for _, faults := range []int{0, 1, 2, 4, 8, *n / 2, *n} {
		if faults > *n {
			continue
		}
		res := harness.MustRun(harness.RunSpec{
			Graph:        g,
			Scheduler:    harness.SchedSync,
			Start:        harness.StartLegitimate,
			CorruptNodes: faults,
			Seed:         *seed + int64(faults),
		})
		deg := -1
		if res.Tree != nil {
			deg = res.Tree.MaxDegree()
		}
		fmt.Printf("%-8d %-10d %-10d %-8d %v\n",
			faults, res.LastChange, res.TotalMessages, deg, res.Legit.OK())
	}
	fmt.Println("\nrecovery = round of the last state change; 0 faults may still")
	fmt.Println("show a few rounds while colors and views re-synchronize.")

	// Visualize one recovery: per-round root count, tree degree and
	// reduction messages in flight after corrupting a quarter of the
	// nodes, from the collected run's series.
	coll := &metrics.Collector{}
	res := harness.MustRun(harness.RunSpec{
		Graph:        g,
		Scheduler:    harness.SchedSync,
		Start:        harness.StartLegitimate,
		CorruptNodes: *n / 4,
		Seed:         *seed + 100,
		Collect:      coll,
	})
	series := coll.Series("recovery")
	fmt.Printf("\ntimeline of one recovery (%d faults, %d rounds):\n", *n/4, res.Rounds)
	fmt.Printf("  roots   %s\n", series.Sparkline("roots", 60))
	fmt.Printf("  treeDeg %s\n", series.Sparkline("treeDeg", 60))
	fmt.Printf("  deficit %s\n", series.Sparkline("deficit", 60))
}
