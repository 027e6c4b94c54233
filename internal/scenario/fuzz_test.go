package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzParseFaults fuzzes the fault/churn grammar, the input surface of the
// churn benchmark and of every -faults flag. ParseFaults must never panic,
// and on every spec it accepts, rendering and re-parsing must be a fixed
// point: ParseFaults(p.Canonical()) succeeds and renders the same string, so
// parse∘canonical = parse and Canonical is idempotent. CompileSpec, the
// step after parsing, must never panic and must treat a spec and its
// canonical form alike on every graph.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"",
		"drop=0:1",
		"loss=10,seed=7",
		"crash=3:0",
		"crash=3:1,recover=3:4",
		"cut=2:3",
		"join=1:2,cut=1:5",
		"lossat=5:40,lossat=2:10,loss=3",
		"crash=21:1,recover=21:3,crash=32:1,recover=32:3,cut=16:2",
		"drop=0:1,drop=0:-1,seed=9",
		" drop=+4:2 ",
		"bogus=1",
		"drop=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaults(spec)
		if err != nil {
			return
		}
		canon := p.Canonical()
		q, err := ParseFaults(canon)
		if err != nil {
			t.Fatalf("ParseFaults(%q) accepted, but its canonical form %q is rejected: %v", spec, canon, err)
		}
		if again := q.Canonical(); again != canon {
			t.Fatalf("Canonical is not a fixed point for %q: %q, then %q", spec, canon, again)
		}
		// CompileSpec never panics, and a spec and its canonical form
		// compile alike on every graph: both fail, or both give equal plans.
		for _, g := range compileGraphs {
			want, _, errSpec := CompileSpec(spec, g)
			got, _, errCanon := CompileSpec(canon, g)
			if (errSpec == nil) != (errCanon == nil) {
				t.Fatalf("on %s, %q compiles with error %v but its canonical form %q with %v", g, spec, errSpec, canon, errCanon)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("on %s, %q compiles to %+v but its canonical form %q to %+v", g, spec, want, canon, got)
			}
		}
	})
}

// compileGraphs are the fixed graphs FuzzParseFaults compiles plans
// against: a chain, a ring (cyclic) and a small layered DAG.
var compileGraphs = []*graph.G{graph.Chain(3), graph.Ring(4), graph.LayeredDigraph(2, 2, 3)}

// FuzzParseScenario fuzzes the scenario grammar, the input surface of every
// -graph flag and of the run server's scenario field. Parse must never
// panic, Parse must reject every spec Size rejects and every graph of more
// than maxVertices vertices, and for every spec Parse accepts the built
// graph has exactly Size's vertex count and at most its edge count, exactly
// it for every family but scalefree. Only graphs of at most 4096 vertices
// and 2^14 edges are built.
func FuzzParseScenario(f *testing.F) {
	for _, spec := range []string{
		"torus",
		"torus:w=5,h=4",
		"scalefree:n=30,m=2,seed=7",
		"smallworld:n=12,k=3,p=40",
		"smallworld:n=3,k=3",
		"regular:n=10,d=4,seed=-3",
		"layereddag:layers=3,width=5,fanout=2",
		"torus:w=700,h=700",
		"torus:w=4294967296,h=4294967296",
		"scalefree:n=9223372036854775807",
		"layereddag:layers=0",
		"klein:w=3",
		"torus:w",
		"torus:w=x",
		" torus: ",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		n, edges, err := Size(spec)
		if err != nil {
			if _, perr := Parse(spec); perr == nil {
				t.Fatalf("Parse accepts %q, Size rejects it: %v", spec, err)
			}
			return
		}
		if n < 3 || edges < n-1 {
			t.Fatalf("Size(%q) = %d vertices, %d edges: below the root, one internal vertex and the terminal, or too few edges to connect them", spec, n, edges)
		}
		if n > maxVertices {
			if _, err := Parse(spec); err == nil {
				t.Fatalf("Parse accepts %q, a graph of %d vertices", spec, n)
			}
			return
		}
		if n > 4096 || edges > 1<<14 {
			return
		}
		g, err := Parse(spec)
		if err != nil {
			return
		}
		if g.NumVertices() != n {
			t.Fatalf("Parse(%q) built %d vertices, Size says %d", spec, g.NumVertices(), n)
		}
		family, _, _ := strings.Cut(strings.TrimSpace(spec), ":")
		if got := g.NumEdges(); got > edges || got != edges && family != "scalefree" {
			t.Fatalf("Parse(%q) built %d edges, Size says %d", spec, got, edges)
		}
	})
}
