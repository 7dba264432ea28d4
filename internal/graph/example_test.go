package graph_test

import (
	"fmt"
	"math/rand"

	"mdst/internal/graph"
)

func ExampleGraph_basic() {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	fmt.Println(g, "connected:", g.IsConnected())
	// Output: graph(n=4, m=4) connected: true
}

func ExampleGraph_Bridges() {
	g := graph.Lollipop(3, 2) // triangle + 2-edge tail
	fmt.Println(g.Bridges())
	// Output: [{2,3} {3,4}]
}

func ExampleRandomGnp() {
	g := graph.RandomGnp(10, 0.3, rand.New(rand.NewSource(1)))
	fmt.Println("n:", g.N(), "connected:", g.IsConnected())
	// Output: n: 10 connected: true
}
