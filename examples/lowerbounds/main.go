// Lowerbounds: a tour of the paper's three adversarial constructions,
// rebuilt through the public API. Each demonstrates why the upper bounds of
// the protocols cannot be improved.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	chainDemo()
	labelDemo()
}

// chainDemo — Theorem 3.2 / Figure 5: on the chain G_n, consecutive spine
// edges are separated by out-degree-2 vertices, so any broadcasting protocol
// must put pairwise distinct symbols on them: Omega(n) alphabet, hence
// Omega(|E| log |E|) total bits. Watch the measured alphabet track n.
func chainDemo() {
	fmt.Println("=== Theorem 3.2: alphabet lower bound on the chain G_n ===")
	fmt.Println("n     |E|   alphabet   total bits")
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		net, err := anonnet.ScenarioNetwork(fmt.Sprintf("chain:n=%d", n))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := anonnet.Broadcast(net, nil, anonnet.WithAlphabetTracking())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5d %-5d %-10d %d\n", n, net.NumEdges(), rep.AlphabetSize, rep.TotalBits)
	}
	fmt.Println("alphabet = n exactly; the paper proves Omega(n) is forced. Tight.")
	fmt.Println()
}

// labelDemo — Theorem 5.2 / Figure 6: build the pruned tree by hand and
// watch the deep leaf's label grow linearly in the path length although the
// graph has only h+3 vertices. The protocol cannot distinguish the pruned
// path from a full d-ary tree with d^h leaves, so it must reserve label
// space for all of them.
func labelDemo() {
	fmt.Println("=== Theorem 5.2: label length lower bound by pruning ===")
	const d = 3
	fmt.Println("h     |V|   deep-leaf label bits   bits/h")
	for _, h := range []int{2, 4, 8, 16, 32} {
		net, leaf, err := prunedTree(h, d)
		if err != nil {
			log.Fatal(err)
		}
		labels, _, err := anonnet.AssignLabels(net)
		if err != nil {
			log.Fatal(err)
		}
		lab, ok := labels[leaf]
		if !ok {
			log.Fatalf("leaf %d unlabeled", leaf)
		}
		fmt.Printf("%-5d %-5d %-22d %.1f\n", h, net.NumVertices(), lab.Bits, float64(lab.Bits)/float64(h))
	}
	fmt.Println("label bits grow ~linearly in h on an (h+3)-vertex graph: Theta(|V| log dout).")
}

// prunedTree builds Figure 6(b): a path of h vertices, each of out-degree d
// with d-1 edges rewired to t, ending in the deep leaf.
func prunedTree(h, d int) (*anonnet.Network, anonnet.VertexID, error) {
	// Vertices: s=0, path p_0..p_h = 1..h+1, t = h+2.
	b := anonnet.NewBuilder(h + 3).SetName(fmt.Sprintf("pruned(h=%d,d=%d)", h, d))
	s := anonnet.VertexID(0)
	t := anonnet.VertexID(h + 2)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	for i := 0; i < h; i++ {
		p := anonnet.VertexID(i + 1)
		for c := 0; c < d; c++ {
			if c == d/2 {
				b.AddEdge(p, anonnet.VertexID(i+2)) // continue the path
			} else {
				b.AddEdge(p, t) // pruned sibling subtree
			}
		}
	}
	leaf := anonnet.VertexID(h + 1)
	b.AddEdge(leaf, t)
	net, err := b.Build()
	return net, leaf, err
}
