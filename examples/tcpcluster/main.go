// TCP cluster: run the protocol over real loopback TCP sockets — one
// goroutine per node, one socket per edge, varint-encoded messages — and
// compare both edge exchanges (the chain of single-parent moves and the
// paper's literal Remove/Back choreography) on the same topology.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/netrun"
	"mdst/internal/sim"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomGeometric(16, 0.5, rng)
	fmt.Printf("network: n=%d m=%d (random geometric — an ad-hoc radio layout)\n", g.N(), g.M())
	lo := mdstseq.LowerBoundDelta(g)
	fmt.Printf("Δ* >= %d, so the protocol guarantees degree <= Δ*+1\n\n", lo)

	exchanges := []struct {
		name    string
		newNode func(id int, nbrs []int, cfg core.Config) *core.Node
	}{
		{"chain", core.NewNode},
		{"literal", core.NewLiteralNode},
	}
	for _, x := range exchanges {
		cfg := core.DefaultConfig(g.N())
		cluster := netrun.NewCluster(g, func(id int, nbrs []int) sim.Process {
			return x.newNode(id, nbrs, cfg)
		}, netrun.Config{})
		nodes := func() []*core.Node {
			out := make([]*core.Node, g.N())
			for i := range out {
				out[i] = cluster.Process(i).(*core.Node)
			}
			return out
		}
		for _, nd := range nodes() {
			nd.Corrupt(rng, g.N()) // Definition 1: arbitrary initial state
		}
		start := time.Now()
		ok, err := cluster.RunUntil(250*time.Millisecond, 40, func() bool {
			return core.CheckLegitimacy(g, nodes()).OK()
		})
		if err != nil {
			log.Fatal(err)
		}
		tree, err := core.ExtractTree(g, nodes())
		if err != nil {
			log.Fatal(err)
		}
		st := core.AggregateStats(nodes())
		fmt.Printf("%-7s exchange over TCP: legitimate=%v in %v, tree degree %d\n",
			x.name, ok, time.Since(start).Round(time.Millisecond), tree.MaxDegree())
		fmt.Printf("  %d exchanges completed, %d hops aborted\n", st.ExchangesComplete, st.Aborted())
	}
}
