// Live runtime demo: the same protocol nodes running as real goroutines
// exchanging messages over Go channels (one inbox per node, FIFO per
// sender) — the CSP rendering of the paper's asynchronous message
// passing model. Every node starts from a corrupted state, and
// harness.Run drives the network with the wall-clock driver every CLI
// uses: it probes the running nodes for quiescence, stops them once a
// certificate is issued and checks legitimacy. -ms bounds the run; the
// run is nondeterministic.
//
//	go run ./examples/livenet [-n 24] [-ms 1500]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
)

func main() {
	n := flag.Int("n", 24, "number of nodes")
	ms := flag.Int("ms", 1500, "wall-clock run deadline in milliseconds")
	seed := flag.Int64("seed", 5, "topology and corruption seed")
	flag.Parse()

	g := graph.HamiltonianAugmented(*n, *n, rand.New(rand.NewSource(*seed)))
	fmt.Printf("running %d goroutine nodes from a corrupted start (deadline %dms)...\n", g.N(), *ms)
	res, err := harness.Run(harness.RunSpec{
		Graph:   g,
		Start:   harness.StartCorrupt,
		Seed:    *seed,
		Backend: harness.BackendLive,
		Tuning:  harness.BackendTuning{Deadline: time.Duration(*ms) * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Tree == nil {
		log.Fatalf("no spanning tree after live run: %s", res.Legit.Detail)
	}
	fmt.Printf("tree degree: %d (Δ* = 2 by construction, bound 3)\n", res.Tree.MaxDegree())
	fmt.Printf("legitimate: %v, certified: %v, restarts: %d\n", res.Legit.OK(), res.Cert != nil, res.Restarts)
	fmt.Printf("%d exchanges completed, %d hops aborted, %d messages in %v\n",
		res.Exchanges, res.Aborts, res.TotalMessages, res.WallTime.Round(time.Millisecond))
	fmt.Printf("degree profile: %v\n", mdstseq.DegreeProfile(res.Tree)[:5])
}
