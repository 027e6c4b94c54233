package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseText checks the text parser never panics and that every accepted
// graph round-trips through MarshalText identically.
func FuzzParseText(f *testing.F) {
	f.Add("anonnet v1\nvertices 3\nroot 0\nterminal 2\nedge 0 1\nedge 1 2\n")
	f.Add("anonnet v1\nname x\nvertices 2\nroot 0\nterminal 1\nedge 0 1\n")
	f.Add("anonnet v1\nvertices 0\n")
	f.Add("garbage")
	f.Add("anonnet v1\nvertices 99999999\n")
	f.Add(string(Chain(3).MarshalText()))
	f.Add("# c\r\nanonnet v1\r\n vertices\t+3 \r\n\nroot 0\nterminal 2\nedge\u00a00 1\n  edge 1 2\n# edge 2 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseText(strings.NewReader(src))
		if err != nil {
			return
		}
		// TextSize sizes every accepted text exactly, without building it.
		if v, e := TextSize(src); v != g.NumVertices() || e != g.NumEdges() {
			t.Fatalf("TextSize = (%d, %d), built graph has (%d, %d)\n%s", v, e, g.NumVertices(), g.NumEdges(), src)
		}
		// Accepted graphs must satisfy the model and round-trip.
		if g.NumVertices() > 0 {
			data := g.MarshalText()
			g2, err := ParseText(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("re-parse of marshalled graph failed: %v\n%s", err, data)
			}
			if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
				t.Fatalf("round trip changed counts")
			}
		}
	})
}
