package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// pinnedFingerprints locks every family at its default parameters and
// seed 1. A change here means the generator is no longer the same pure
// function of (family, params, seed) — old trace files and published
// numbers would silently refer to different graphs.
var pinnedFingerprints = map[string]uint64{
	"chain":      0xb8b84b94a84ae08c,
	"karytree":   0x142a9aa31e7bf3a6,
	"layered":    0x19eb7331d273e4cd,
	"layereddag": 0x0909ddba47d98117,
	"line":       0x76f2b96517a32973,
	"randdag":    0x234896435ecd77a3,
	"randnet":    0x40a15aedbe000f5c,
	"randtree":   0xdc806892bcfca80b,
	"regular":    0xad1c28ba69dd81ea,
	"ring":       0x8fc93fcd0c83f7a8,
	"scalefree":  0x76fe5860d3441303,
	"smallworld": 0xad96b040f868e701,
	"torus":      0x7d2b07aca3ea0250,
}

// seedless are the families that are deterministic by construction and
// ignore the seed.
var seedless = map[string]bool{"line": true, "chain": true, "ring": true, "karytree": true, "torus": true}

// TestFamilyDeterminism: same (family, params, seed) — identical
// fingerprint, pinned; different seed — a different graph, except for the
// seedless families, where it is the same graph.
func TestFamilyDeterminism(t *testing.T) {
	fams := Families()
	if len(fams) != len(pinnedFingerprints) {
		t.Fatalf("registry has %d families, pinned table has %d — pin the new family", len(fams), len(pinnedFingerprints))
	}
	for _, f := range fams {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			a, err := Build(f.Name, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(f.Name, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("two builds with seed 1 disagree: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
			}
			want, ok := pinnedFingerprints[f.Name]
			if !ok {
				t.Fatalf("family %q not pinned", f.Name)
			}
			if a.Fingerprint() != want {
				t.Fatalf("fingerprint %016x, pinned %016x — generator changed", a.Fingerprint(), want)
			}
			c, err := Build(f.Name, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			if f.Seedless != seedless[f.Name] {
				t.Fatalf("Seedless = %v, want %v", f.Seedless, seedless[f.Name])
			}
			if same := c.Fingerprint() == a.Fingerprint(); same != f.Seedless {
				t.Fatalf("seed 2 gives the same graph as seed 1: %v, want %v (seedless %v)", same, f.Seedless, f.Seedless)
			}
		})
	}
}

// TestOldGeneratorDefaults: every network the CLIs once built from their
// private generator flags has a registry spec that builds it edge for edge:
// anoncast's -topo defaults (-n 16 -extra 16 -height 3 -d 2 -layers 4
// -width 3 -seed 1) and anonshrink record's randnet (-n 8 -seed 1).
func TestOldGeneratorDefaults(t *testing.T) {
	for _, c := range []struct {
		spec string
		old  *graph.G
	}{
		{"line", graph.Line(16)},
		{"chain", graph.Chain(16)},
		{"ring", graph.Ring(16)},
		{"karytree", graph.KaryGroundedTree(3, 2)},
		{"randtree", graph.RandomGroundedTree(16, 0.2, 1)},
		{"randdag", graph.RandomDAG(16, 16, 1)},
		{"randnet", graph.RandomDigraph(16, 1, graph.RandomDigraphOpts{ExtraEdges: 16, TerminalFrac: 0.15})},
		{"layered", graph.LayeredDigraph(4, 3, 1)},
		{"randnet:n=8,extra=8,tfrac=20", graph.RandomDigraph(8, 1, graph.RandomDigraphOpts{ExtraEdges: 8, TerminalFrac: 0.2})},
	} {
		g, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.Fingerprint() != c.old.Fingerprint() {
			t.Errorf("%s: fingerprint %016x, the old generator's %016x", c.spec, g.Fingerprint(), c.old.Fingerprint())
		}
		if got, want := g.Renamed("").MarshalText(), c.old.Renamed("").MarshalText(); string(got) != string(want) {
			t.Errorf("%s: edges differ from the old generator's\ngot:\n%s\nwant:\n%s", c.spec, got, want)
		}
	}
}

// TestSpecNamesGraph: a family that names its graph by its spec names it
// by the canonical spec, whatever spelling built it, and the name parses
// back to the same graph. Seedless families leave the seed out.
func TestSpecNamesGraph(t *testing.T) {
	for _, c := range []struct{ spec, name string }{
		{"randnet", "randnet:n=16,extra=16,tfrac=15,seed=1"},
		{" randnet:seed=1,tfrac=15,n=8 ", "randnet:n=8,extra=16,tfrac=15,seed=1"},
		{"ring:n=5,seed=9", "ring:n=5"},
		{"karytree:d=3", "karytree:h=3,d=3"},
		{"layered:width=2,seed=4", "layered:layers=4,width=2,seed=4"},
	} {
		g, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != c.name {
			t.Errorf("Parse(%q) named %q, want %q", c.spec, g.Name(), c.name)
		}
		again, err := Parse(g.Name())
		if err != nil {
			t.Fatal(err)
		}
		if string(again.MarshalText()) != string(g.MarshalText()) {
			t.Errorf("%q does not rebuild the graph it names", g.Name())
		}
	}
}

// TestFamilyParams: parameters resize the graph and are validated.
func TestFamilyParams(t *testing.T) {
	g, err := Build("torus", map[string]int{"w": 5, "h": 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5*4+2 {
		t.Fatalf("torus w=5 h=4: %d vertices, want %d", g.NumVertices(), 5*4+2)
	}
	if _, err := Build("torus", map[string]int{"q": 3}, 1); err == nil || !strings.Contains(err.Error(), "no parameter") {
		t.Fatalf("unknown parameter accepted: %v", err)
	}
	if _, err := Build("torus", map[string]int{"w": 1}, 1); err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Fatalf("below-minimum parameter accepted: %v", err)
	}
	if _, err := Build("randnet", map[string]int{"tfrac": 101}, 1); err == nil || !strings.Contains(err.Error(), "above maximum") {
		t.Fatalf("above-maximum parameter accepted: %v", err)
	}
	if _, err := Build("nope", nil, 1); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("unknown family accepted: %v", err)
	}
}

// TestParse: the CLI spec syntax round-trips into Build, including the
// reserved seed key.
func TestParse(t *testing.T) {
	a, err := Parse("smallworld:n=12,k=2,p=30,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("smallworld", map[string]int{"n": 12, "k": 2, "p": 30}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("Parse and Build disagree: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
	if _, err := Parse("smallworld:k2"); err == nil {
		t.Fatal("malformed parameter accepted")
	}
	if _, err := Parse(""); err == nil {
		t.Fatal("empty spec accepted")
	}
	// Bare family name uses all defaults.
	if _, err := Parse("torus"); err != nil {
		t.Fatal(err)
	}
}

// TestParseFaults: the fault spec syntax compiles down to sim.Faults.
func TestParseFaults(t *testing.T) {
	p, err := ParseFaults("drop=0:2,drop=1:1,loss=15,crash=3:0,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropFirst[0] != 2 || p.DropFirst[1] != 1 || p.LossPct != 15 || p.Seed != 42 || p.CrashAfter[3] != 0 {
		t.Fatalf("parsed plan %+v", p)
	}
	if _, ok := p.CrashAfter[3]; !ok {
		t.Fatal("crash entry missing")
	}
	g := graph.Chain(3)
	f, err := p.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if f.LossRate != 0.15 || f.Seed != 42 {
		t.Fatalf("compiled faults %+v", f)
	}

	empty, err := ParseFaults("")
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatal("empty spec is not the empty plan")
	}
	if c, err := empty.Compile(g); err != nil || c != nil {
		t.Fatalf("empty plan compiled to %v, %v", c, err)
	}

	for _, bad := range []string{"drop=0", "loss=pct", "crash=1", "warp=9", "loss=101,"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
	// Out-of-range IDs are rejected at compile time against the graph.
	oob, err := ParseFaults("drop=99:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oob.Compile(g); err == nil {
		t.Fatal("out-of-range edge accepted by Compile")
	}
	if _, err := ParseFaults("loss=101"); err != nil {
		t.Fatal("ParseFaults validates range lazily; Compile rejects it")
	}
	lossy, _ := ParseFaults("loss=101")
	if _, err := lossy.Compile(g); err == nil {
		t.Fatal("loss=101 accepted by Compile")
	}
}

// TestCompiledPlanRuns: a compiled plan changes a real run the way the
// sim layer promises — dropping the only initial message leaves the
// network unvisited and the run quiescent.
func TestCompiledPlanRuns(t *testing.T) {
	g, err := Build("torus", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rootOut := g.OutEdgeIDs(g.Root())[0]
	plan := &FaultPlan{DropFirst: map[graph.EdgeID]int{rootOut: 1}}
	f, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(g, core.NewGeneralBroadcast([]byte("x")), sim.Options{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %v, want quiescent after dropping sigma0", r.Verdict)
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped)
	}
	if r.AllVisited() {
		t.Fatal("all vertices visited although the only initial message was dropped")
	}
}

// TestLookupAllocsNothing: finding a family allocates nothing, the first
// and the last of the registry alike. The benchmark's graph setup and every
// freshly keyed served request look one up.
func TestLookupAllocsNothing(t *testing.T) {
	for _, name := range []string{families[0].Name, families[len(families)-1].Name} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := lookup(name); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("lookup(%q) allocates %.1f times", name, allocs)
		}
	}
}
