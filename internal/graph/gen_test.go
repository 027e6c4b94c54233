package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomDigraphFixpoint is RandomDigraph with its original co-reachability
// loop: after each edge it adds to t, it recomputes co-reachability from
// scratch, so it costs O(n·(n+E)). It is the oracle for the one-pass loop.
func randomDigraphFixpoint(n int, seed int64, opts RandomDigraphOpts) *G {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n + 2 + opts.Orphans).SetName(fmt.Sprintf("randDigraph(%d,seed=%d)", n, seed))
	s, t := VertexID(0), VertexID(n+1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	for i := 2; i <= n; i++ {
		b.AddEdge(VertexID(rng.Intn(i-1)+1), VertexID(i))
	}
	for k := 0; k < opts.ExtraEdges; k++ {
		i, j := rng.Intn(n)+1, rng.Intn(n)+1
		if i != j {
			b.AddEdge(VertexID(i), VertexID(j))
		}
	}
	for i := 1; i <= n; i++ {
		if rng.Float64() < opts.TerminalFrac {
			b.AddEdge(VertexID(i), t)
		}
	}
	for fixed := true; fixed; {
		inAdj := make([][]VertexID, n+2)
		for _, e := range b.edges {
			inAdj[e.To] = append(inAdj[e.To], e.From)
		}
		seen := make([]bool, n+2)
		seen[t] = true
		for stack := []VertexID{t}; len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range inAdj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		fixed = false
		for i := 1; i <= n; i++ {
			if !seen[i] {
				b.AddEdge(VertexID(i), t)
				fixed = true
				break
			}
		}
	}
	for k := 0; k < opts.Orphans; k++ {
		o := VertexID(n + 2 + k)
		b.AddEdge(VertexID(rng.Intn(n)+1), o)
		if k > 0 && rng.Intn(2) == 0 {
			b.AddEdge(o, VertexID(n+2+rng.Intn(k)))
		}
	}
	return b.MustBuild()
}

// TestRandomDigraphMatchesFixpoint: the one-pass co-reachability wiring
// builds byte-identical graphs to the fixpoint loop it replaced, across
// seeds, sizes, terminal fractions and orphan counts.
func TestRandomDigraphMatchesFixpoint(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 64, 200} {
		for _, frac := range []float64{0, 0.15, 0.2, 0.5} {
			for _, orphans := range []int{0, 3} {
				for seed := int64(0); seed < 8; seed++ {
					opts := RandomDigraphOpts{ExtraEdges: n, TerminalFrac: frac, Orphans: orphans}
					got := RandomDigraph(n, seed, opts).MarshalText()
					want := randomDigraphFixpoint(n, seed, opts).MarshalText()
					if !bytes.Equal(got, want) {
						t.Fatalf("n=%d seed=%d %+v: one-pass wiring differs from the fixpoint loop\ngot:\n%s\nwant:\n%s", n, seed, opts, got, want)
					}
				}
			}
		}
	}
}
