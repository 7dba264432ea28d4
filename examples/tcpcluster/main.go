// TCP cluster: run the protocol over real loopback TCP sockets — one
// goroutine per node, one socket per edge, varint-encoded messages — and
// compare both edge exchanges (the chain of single-parent moves and the
// paper's literal Remove/Back choreography) on the same topology, each
// from the same corrupted start. harness.Run drives each cluster with
// the wall-clock driver every CLI uses: it probes the running cluster
// over its control channel, stops it once a quiescence certificate is
// issued and checks legitimacy.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
)

func main() {
	g := graph.RandomGeometric(16, 0.5, rand.New(rand.NewSource(7)))
	fmt.Printf("network: n=%d m=%d (random geometric — an ad-hoc radio layout)\n", g.N(), g.M())
	star := mdstseq.DeltaStar(g, false)
	fmt.Printf("Δ*: %v, so the protocol guarantees tree degree <= Δ*+1 <= %d\n\n", star, star.Hi+1)

	exchanges := []struct {
		name    string
		variant harness.Variant
	}{
		{"chain", harness.VariantCore},
		{"literal", harness.VariantLiteral},
	}
	for _, x := range exchanges {
		res, err := harness.Run(harness.RunSpec{
			Graph:   g,
			Variant: x.variant,
			Start:   harness.StartCorrupt, // Definition 1: arbitrary initial state
			Seed:    7,
			Backend: harness.BackendTCP,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.Tree == nil {
			log.Fatalf("%s exchange: no spanning tree over TCP: %s", x.name, res.Legit.Detail)
		}
		fmt.Printf("%-7s exchange over TCP: legitimate=%v in %v, tree degree %d\n",
			x.name, res.Legit.OK(), res.WallTime.Round(time.Millisecond), res.Tree.MaxDegree())
		fmt.Printf("  %d exchanges completed, %d hops aborted; certified=%v, %d restarts\n",
			res.Exchanges, res.Aborts, res.Cert != nil, res.Restarts)
	}
}
