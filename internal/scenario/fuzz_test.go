package scenario

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseFaults fuzzes the fault/churn grammar, the input surface of the
// churn benchmark and of every -faults flag. ParseFaults must never panic,
// and on every spec it accepts, rendering and re-parsing must be a fixed
// point: ParseFaults(p.Canonical()) succeeds and renders the same string, so
// parse∘canonical = parse and Canonical is idempotent.
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
	})
}

// FuzzParseScenario fuzzes the scenario grammar, the input surface of every
// -graph flag and of the run server's scenario field. Parse must never
// panic, Parse must reject every spec Vertices rejects and every graph of
// more than maxVertices vertices, and for every spec Parse accepts the
// built graph has exactly Vertices(spec) vertices. Only graphs of at most 4096 vertices and a bounded parameter
// product are built: a family's edge count grows with its parameters, not
// with its vertex count alone.
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
		n, err := Vertices(spec)
		if err != nil {
			if _, perr := Parse(spec); perr == nil {
				t.Fatalf("Parse accepts %q, Vertices rejects it: %v", spec, err)
			}
			return
		}
		if n < 3 {
			t.Fatalf("Vertices(%q) = %d, below the root, one internal vertex and the terminal", spec, n)
		}
		if n > maxVertices {
			if _, err := Parse(spec); err == nil {
				t.Fatalf("Parse accepts %q, a graph of %d vertices", spec, n)
			}
			return
		}
		if n > 4096 || paramProduct(spec) > 1<<14 {
			return
		}
		g, err := Parse(spec)
		if err != nil {
			return
		}
		if g.NumVertices() != n {
			t.Fatalf("Parse(%q) built %d vertices, Vertices says %d", spec, g.NumVertices(), n)
		}
	})
}

// paramProduct multiplies the spec's non-seed parameter values, each at
// least 1, saturating past 2^32; a value that does not parse counts as 1.
func paramProduct(spec string) uint64 {
	_, rest, _ := strings.Cut(spec, ":")
	prod := uint64(1)
	for _, kv := range strings.Split(rest, ",") {
		k, v, _ := strings.Cut(kv, "=")
		x, err := strconv.ParseInt(v, 10, 64)
		if k == "seed" || err != nil || x < 1 {
			continue
		}
		prod *= uint64(min(x, 1<<32))
		prod = min(prod, 1<<32)
	}
	return prod
}
