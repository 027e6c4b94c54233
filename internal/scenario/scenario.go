// Package scenario is the workload-preset layer and the one vocabulary for
// naming a network: named, parameterized, seeded graph families, plus
// first-class fault plans. The registry holds the generators of package
// graph (line, chain, ring, karytree, randtree, randdag, randnet, layered)
// beside families of its own (scalefree, smallworld, torus, regular,
// layereddag). Every family is a pure function of (family, params, seed) —
// same inputs, byte-identical graph, pinned by fingerprint in the
// determinism tests — so a scenario spec string is a complete, replayable
// description of a workload.
//
// The registry is mirrored into the CLIs as -graph "family:param=v,..."
// (anoncast, anonbench, anonshrink record), into the facade as
// anonnet.ScenarioNetwork / anonnet.WithScenario, and into the run server's
// scenario field.
package scenario

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Param describes one integer parameter of a family.
type Param struct {
	// Name is the key accepted in spec strings.
	Name string
	// Default is used when the spec omits the parameter.
	Default int
	// Min is the smallest accepted value.
	Min int
	// Max, when positive, is the largest accepted value.
	Max int
}

// Family is one named graph family of the registry.
type Family struct {
	// Name is the registry key ("scalefree", "torus", ...).
	Name string
	// Desc is a one-line human description for CLI help.
	Desc string
	// Params lists the accepted parameters with defaults.
	Params []Param
	// Seedless families ignore the seed: every seed builds one graph, and
	// Spec omits it.
	Seedless bool

	build func(p map[string]int, seed int64) (*graph.G, error)
	// namedBySpec families name their graph by its canonical spec (Spec);
	// the others name it in their builder.
	namedBySpec bool
	// size returns the vertex count build makes for full parameters p and
	// its edge count, or a bound on it, both saturated at math.MaxInt.
	size func(p map[string]int) (vertices, edges int)
}

// families is the registry. Generators draw randomness exclusively from a
// rand.Source seeded by the caller and never iterate Go maps, so each is a
// pure function of (params, seed).
var families = []Family{
	{
		Name: "scalefree",
		Desc: "preferential-attachment scale-free DAG; new vertices attach m edges to high-out-degree ancestors, sinks wire to t",
		Params: []Param{
			{Name: "n", Default: 24, Min: 2},
			{Name: "m", Default: 2, Min: 1},
		},
		build: buildScaleFree,
		// s->1, at most min(m, n-1) in-edges per vertex, and at most one
		// edge to t per vertex.
		size: func(p map[string]int) (int, int) {
			n := p["n"]
			return satAdd(n, 2), satAdd(satMul(n, min(p["m"], n-1)), satAdd(n, 1))
		},
	},
	{
		Name: "smallworld",
		Desc: "Watts-Strogatz directed small world: ring lattice with k forward neighbors, long-range edges rewired with probability p%",
		Params: []Param{
			{Name: "n", Default: 24, Min: 3},
			{Name: "k", Default: 2, Min: 1},
			{Name: "p", Default: 20, Min: 0},
		},
		build: buildSmallWorld,
		size: func(p map[string]int) (int, int) {
			return satAdd(p["n"], 2), satAdd(satMul(p["n"], p["k"]), 2)
		},
	},
	{
		Name: "torus",
		Desc: "w x h directed torus (right+down with wraparound), strongly connected",
		Params: []Param{
			{Name: "w", Default: 4, Min: 2},
			{Name: "h", Default: 3, Min: 2},
		},
		Seedless: true,
		build:    buildTorus,
		size: func(p map[string]int) (int, int) {
			cells := satMul(p["w"], p["h"])
			return satAdd(cells, 2), satAdd(satMul(cells, 2), 2)
		},
	},
	{
		Name: "regular",
		Desc: "bounded-degree random regular-ish expander: a base cycle plus d-1 seeded random out-edges per vertex",
		Params: []Param{
			{Name: "n", Default: 24, Min: 2},
			{Name: "d", Default: 3, Min: 1},
		},
		build: buildRegular,
		size: func(p map[string]int) (int, int) {
			return satAdd(p["n"], 2), satAdd(satMul(p["n"], p["d"]), 2)
		},
	},
	{
		Name: "layereddag",
		Desc: "layered DAG: layers x width grid with intra-layer chains and seeded fan-out to the next layer",
		Params: []Param{
			{Name: "layers", Default: 4, Min: 1},
			{Name: "width", Default: 4, Min: 1},
			{Name: "fanout", Default: 2, Min: 1},
		},
		build: buildLayeredDAG,
		// s->first, a chain of width-1 edges per layer, and between
		// consecutive layers the first-to-first edge plus fanout per vertex.
		size: func(p map[string]int) (int, int) {
			layers, width := p["layers"], p["width"]
			between := satMul(layers-1, satAdd(satMul(width, p["fanout"]), 1))
			return satAdd(satMul(layers, width), 2), satAdd(satAdd(satMul(layers, width-1), between), 2)
		},
	},
	// The generators of package graph. Their graphs are named by their
	// canonical specs.
	{
		Name:        "line",
		Desc:        "path s -> v1 -> ... -> vn -> t, the simplest grounded tree",
		Params:      []Param{{Name: "n", Default: 16, Min: 1}},
		build:       func(p map[string]int, _ int64) (*graph.G, error) { return graph.Line(p["n"]), nil },
		size:        func(p map[string]int) (int, int) { return satAdd(p["n"], 2), satAdd(p["n"], 1) },
		Seedless:    true,
		namedBySpec: true,
	},
	{
		Name:        "chain",
		Desc:        "the lower-bound chain G_n of Theorem 3.2: a path with every vertex also wired to t",
		Params:      []Param{{Name: "n", Default: 16, Min: 1}},
		build:       func(p map[string]int, _ int64) (*graph.G, error) { return graph.Chain(p["n"]), nil },
		size:        func(p map[string]int) (int, int) { return satAdd(p["n"], 2), satMul(p["n"], 2) },
		Seedless:    true,
		namedBySpec: true,
	},
	{
		Name:        "ring",
		Desc:        "directed n-cycle under s with every cycle vertex also wired to t",
		Params:      []Param{{Name: "n", Default: 16, Min: 2}},
		build:       func(p map[string]int, _ int64) (*graph.G, error) { return graph.Ring(p["n"]), nil },
		size:        func(p map[string]int) (int, int) { return satAdd(p["n"], 2), satAdd(satMul(p["n"], 2), 1) },
		Seedless:    true,
		namedBySpec: true,
	},
	{
		Name:   "karytree",
		Desc:   "full d-ary grounded tree of height h, every leaf wired to t (Theorem 5.2's large graph)",
		Params: []Param{{Name: "h", Default: 3, Min: 0}, {Name: "d", Default: 2, Min: 1}},
		build: func(p map[string]int, _ int64) (*graph.G, error) {
			return graph.KaryGroundedTree(p["h"], p["d"]), nil
		},
		// s->root, one in-edge per other tree vertex, one edge per leaf to t.
		size: func(p map[string]int) (int, int) {
			tree, leaves := karySize(p["h"], p["d"])
			return satAdd(tree, 2), satAdd(tree, leaves)
		},
		Seedless:    true,
		namedBySpec: true,
	},
	// randtree, randdag and randnet: s->1, n-1 tree edges, at most extra
	// random edges, and at most one edge to t per vertex.
	{
		Name:   "randtree",
		Desc:   "random recursive grounded tree; leaves wire to t, other vertices with probability tfrac%",
		Params: []Param{{Name: "n", Default: 16, Min: 1}, {Name: "tfrac", Default: 20, Min: 0, Max: 100}},
		build: func(p map[string]int, seed int64) (*graph.G, error) {
			return graph.RandomGroundedTree(p["n"], float64(p["tfrac"])/100, seed), nil
		},
		size:        randSize,
		namedBySpec: true,
	},
	{
		Name:   "randdag",
		Desc:   "random DAG: a recursive spanning tree plus extra random forward edges; sinks wire to t",
		Params: []Param{{Name: "n", Default: 16, Min: 1}, {Name: "extra", Default: 16, Min: 0}},
		build: func(p map[string]int, seed int64) (*graph.G, error) {
			return graph.RandomDAG(p["n"], p["extra"], seed), nil
		},
		size:        randSize,
		namedBySpec: true,
	},
	{
		Name: "randnet",
		Desc: "random general digraph: a recursive spanning tree plus extra random edges (cycles welcome), tfrac% direct edges to t, every vertex co-reachable",
		Params: []Param{
			{Name: "n", Default: 16, Min: 1}, {Name: "extra", Default: 16, Min: 0}, {Name: "tfrac", Default: 15, Min: 0, Max: 100},
		},
		build: func(p map[string]int, seed int64) (*graph.G, error) {
			opts := graph.RandomDigraphOpts{ExtraEdges: p["extra"], TerminalFrac: float64(p["tfrac"]) / 100}
			return graph.RandomDigraph(p["n"], seed, opts), nil
		},
		size:        randSize,
		namedBySpec: true,
	},
	{
		Name:   "layered",
		Desc:   "layers x width digraph: two forward edges per vertex and one seeded back edge per inner layer, usually but not always cyclic",
		Params: []Param{{Name: "layers", Default: 4, Min: 1}, {Name: "width", Default: 3, Min: 1}},
		build: func(p map[string]int, seed int64) (*graph.G, error) {
			return graph.LayeredDigraph(p["layers"], p["width"], seed), nil
		},
		// s->first, width-1 fan-out edges in the first layer, two forward
		// edges per vertex of every layer but the last, one back edge per
		// layer strictly between the first and the last, and width edges
		// to t.
		size: func(p map[string]int) (int, int) {
			layers, width := p["layers"], p["width"]
			forward := satMul(satMul(width, 2), layers-1)
			return satAdd(satMul(layers, width), 2), satAdd(satAdd(satMul(width, 2), forward), max(layers-2, 0))
		},
		namedBySpec: true,
	},
}

// Families returns the registry sorted by name. The slice is a copy; callers
// may not mutate the registry through it.
func Families() []Family {
	out := make([]Family, len(families))
	copy(out, families)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted family names.
func Names() []string {
	fams := Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// lookup finds a family by name.
func lookup(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("scenario: unknown family %q (have %s)", name, strings.Join(Names(), "|"))
}

// Build generates the named family with the given parameters and seed.
// Missing parameters take their defaults; unknown parameters and values
// below a parameter's minimum are errors, and so is a graph of more than
// maxVertices vertices. The result is a pure function of
// (family, params, seed).
func Build(family string, params map[string]int, seed int64) (*graph.G, error) {
	f, full, err := resolve(family, params)
	if err != nil {
		return nil, err
	}
	if v, _ := f.size(full); v > maxVertices {
		return nil, fmt.Errorf("scenario: %s has more than %d vertices", family, maxVertices)
	}
	g, err := f.build(full, seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", family, err)
	}
	if f.namedBySpec {
		g = g.Renamed(Spec(f, full, seed))
	}
	return g, nil
}

// Spec renders the canonical spec of family f: its name, every parameter
// in declared order (defaults fill the ones params omits), and the seed
// unless f is seedless. Parse(Spec(f, params, seed)) builds the graph
// Build(f.Name, params, seed) does.
func Spec(f Family, params map[string]int, seed int64) string {
	b := []byte(f.Name)
	sep := byte(':')
	for _, p := range f.Params {
		v, ok := params[p.Name]
		if !ok {
			v = p.Default
		}
		b = append(append(append(b, sep), p.Name...), '=')
		b = strconv.AppendInt(b, int64(v), 10)
		sep = ','
	}
	if !f.Seedless {
		b = append(append(b, sep), "seed="...)
		b = strconv.AppendInt(b, seed, 10)
	}
	return string(b)
}

// maxVertices bounds the graphs Build makes. No larger graph fits in
// memory, and the builder's slices would fail to allocate one whose count
// nears math.MaxInt.
const maxVertices = math.MaxInt32

// Size returns the number of vertices Parse(spec) builds — the family's
// internal vertices plus the root and the terminal — and its number of
// edges, without building the graph. Both counts saturate at math.MaxInt
// when they do not fit in an int. The vertex count is exact, and so is the
// edge count except where the edges to t or the extra edges are random
// (scalefree, randtree, randdag, randnet): there it is an upper bound, for
// scalefree 1 + n·min(m, n−1) + n. Size returns Parse's error for a spec
// whose syntax, family or parameters Parse rejects before building; a
// family may still reject a spec Size accepts (smallworld needs k < n, for
// one).
func Size(spec string) (vertices, edges int, err error) {
	family, params, _, err := parseSpec(spec)
	if err != nil {
		return 0, 0, err
	}
	f, full, err := resolve(family, params)
	if err != nil {
		return 0, 0, err
	}
	vertices, edges = f.size(full)
	return vertices, edges, nil
}

// satMul and satAdd multiply and add non-negative counts, saturating at
// math.MaxInt. Parameters are at least their minimum, which is never
// negative.
func satMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// karySize returns the vertex count of the full d-ary tree of height h and
// its leaf count, both saturated at math.MaxInt.
func karySize(h, d int) (tree, leaves int) {
	if d == 1 {
		return satAdd(h, 1), 1
	}
	tree, leaves = 1, 1
	for i := 0; i < h && tree < math.MaxInt; i++ {
		leaves = satMul(leaves, d)
		tree = satAdd(tree, leaves)
	}
	return tree, leaves
}

// randSize is the size of randtree, randdag and randnet (randtree has no
// extra edges).
func randSize(p map[string]int) (int, int) {
	return satAdd(p["n"], 2), satAdd(satMul(p["n"], 2), p["extra"])
}

// resolve looks family up and returns its full parameters: params over the
// defaults, each checked against its family.
func resolve(family string, params map[string]int) (Family, map[string]int, error) {
	f, err := lookup(family)
	if err != nil {
		return Family{}, nil, err
	}
	full := make(map[string]int, len(f.Params))
	for _, p := range f.Params {
		full[p.Name] = p.Default
	}
	for k, v := range params {
		p, ok := findParam(f.Params, k)
		if !ok {
			return Family{}, nil, fmt.Errorf("scenario: family %q has no parameter %q (have %s)", family, k, paramNames(f.Params))
		}
		if v < p.Min {
			return Family{}, nil, fmt.Errorf("scenario: %s:%s=%d below minimum %d", family, k, v, p.Min)
		}
		if p.Max > 0 && v > p.Max {
			return Family{}, nil, fmt.Errorf("scenario: %s:%s=%d above maximum %d", family, k, v, p.Max)
		}
		full[k] = v
	}
	return f, full, nil
}

func findParam(ps []Param, name string) (Param, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

func paramNames(ps []Param) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, "|")
}

// Parse builds a graph from a spec string of the form
//
//	family[:key=value,key=value,...]
//
// e.g. "torus:w=5,h=4" or "scalefree:n=30,m=2,seed=7". The reserved key
// "seed" sets the generator seed (default 1).
func Parse(spec string) (*graph.G, error) {
	family, params, seed, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return Build(family, params, seed)
}

// parseSpec splits a Parse spec into its family, its parameters and its
// seed.
func parseSpec(spec string) (family string, params map[string]int, seed int64, err error) {
	family, kvs, err := splitSpec(spec)
	if err != nil {
		return "", nil, 0, err
	}
	params = make(map[string]int)
	seed = 1
	for _, kv := range kvs {
		k, vs, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, 0, fmt.Errorf("scenario: bad parameter %q in %q (want key=value)", kv, spec)
		}
		v, err := strconv.ParseInt(vs, 10, 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("scenario: bad value %q for %s in %q", vs, k, spec)
		}
		if k == "seed" {
			seed = v
			continue
		}
		params[k] = int(v)
	}
	return family, params, seed, nil
}

// splitSpec separates "family:k=v,k=v" into the family name and the raw
// key=value parts.
func splitSpec(spec string) (string, []string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return "", nil, fmt.Errorf("scenario: empty spec")
	}
	family, rest, has := strings.Cut(spec, ":")
	if !has || strings.TrimSpace(rest) == "" {
		return family, nil, nil
	}
	return family, strings.Split(rest, ","), nil
}

// buildScaleFree grows a preferential-attachment DAG: internal vertices are
// added in order, each new vertex receiving m in-edges from existing
// vertices chosen with probability proportional to out-degree+1 (edges point
// old -> new, which keeps every vertex reachable from the first). Sinks wire
// to the terminal, so every maximal path ends at t.
func buildScaleFree(p map[string]int, seed int64) (*graph.G, error) {
	n, m := p["n"], p["m"]
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n + 2).SetName(fmt.Sprintf("scalefree(n=%d,m=%d,seed=%d)", n, m, seed))
	s, t := graph.VertexID(0), graph.VertexID(n+1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)

	// outDeg[i] counts internal->internal edges of vertex i+1; the weight
	// outDeg+1 gives fresh vertices a chance to attract edges.
	outDeg := make([]int, n)
	for i := 2; i <= n; i++ {
		attach := m
		if i-1 < attach {
			attach = i - 1
		}
		for a := 0; a < attach; a++ {
			total := 0
			for j := 0; j < i-1; j++ {
				total += outDeg[j] + 1
			}
			pick := rng.Intn(total)
			src := 0
			for j := 0; j < i-1; j++ {
				pick -= outDeg[j] + 1
				if pick < 0 {
					src = j
					break
				}
			}
			b.AddEdge(graph.VertexID(src+1), graph.VertexID(i))
			outDeg[src]++
		}
	}
	for i := 0; i < n; i++ {
		if outDeg[i] == 0 {
			b.AddEdge(graph.VertexID(i+1), t)
		}
	}
	return b.Build()
}

// buildSmallWorld is a directed Watts-Strogatz ring lattice: vertex i links
// to its next k ring neighbors; each long-range edge (distance >= 2) is
// rewired to a uniform random target with probability p%. The distance-1
// base cycle is never rewired, so the ring stays strongly connected and the
// single edge into t keeps every vertex co-reachable.
func buildSmallWorld(p map[string]int, seed int64) (*graph.G, error) {
	n, k, pct := p["n"], p["k"], p["p"]
	if pct > 100 {
		return nil, fmt.Errorf("p=%d above 100", pct)
	}
	if k >= n {
		return nil, fmt.Errorf("k=%d must be below n=%d", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n + 2).SetName(fmt.Sprintf("smallworld(n=%d,k=%d,p=%d,seed=%d)", n, k, pct, seed))
	s, t := graph.VertexID(0), graph.VertexID(n+1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)

	ring := func(i int) graph.VertexID { return graph.VertexID(1 + ((i + n) % n)) }
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			to := ring(i + d)
			if d >= 2 && rng.Intn(100) < pct {
				// Rewire the long-range edge anywhere but back to i.
				for {
					cand := ring(rng.Intn(n))
					if cand != ring(i) {
						to = cand
						break
					}
				}
			}
			b.AddEdge(ring(i), to)
		}
	}
	b.AddEdge(ring(n-1), t)
	return b.Build()
}

// buildTorus is the w x h directed torus: every cell links right and down
// with wraparound — strongly connected, diameter w+h, no randomness (the
// seed is accepted for registry uniformity and ignored).
func buildTorus(p map[string]int, seed int64) (*graph.G, error) {
	w, h := p["w"], p["h"]
	b := graph.NewBuilder(w*h + 2).SetName(fmt.Sprintf("torus(w=%d,h=%d)", w, h))
	s, t := graph.VertexID(0), graph.VertexID(w*h+1)
	b.SetRoot(s).SetTerminal(t)
	cell := func(x, y int) graph.VertexID { return graph.VertexID(1 + y*w + x) }
	b.AddEdge(s, cell(0, 0))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddEdge(cell(x, y), cell((x+1)%w, y))
			b.AddEdge(cell(x, y), cell(x, (y+1)%h))
		}
	}
	b.AddEdge(cell(w-1, h-1), t)
	return b.Build()
}

// buildRegular is the bounded-degree expander-ish family: a base cycle
// (guaranteeing strong connectivity) plus d-1 seeded uniform random
// out-edges per vertex — every internal vertex has out-degree d (the cycle
// vertex wired to t has d+1).
func buildRegular(p map[string]int, seed int64) (*graph.G, error) {
	n, d := p["n"], p["d"]
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n + 2).SetName(fmt.Sprintf("regular(n=%d,d=%d,seed=%d)", n, d, seed))
	s, t := graph.VertexID(0), graph.VertexID(n+1)
	b.SetRoot(s).SetTerminal(t)
	b.AddEdge(s, 1)
	for i := 0; i < n; i++ {
		u := graph.VertexID(1 + i)
		b.AddEdge(u, graph.VertexID(1+(i+1)%n))
		for a := 0; a < d-1; a++ {
			// Random target, self-loops excluded (they are legal in the
			// model but carry no traffic the protocols can use).
			for {
				v := graph.VertexID(1 + rng.Intn(n))
				if v != u || n == 1 {
					b.AddEdge(u, v)
					break
				}
			}
		}
	}
	b.AddEdge(graph.VertexID(n), t)
	return b.Build()
}

// buildLayeredDAG is a pure layered DAG: layers x width vertices, a chain
// inside every layer (so one in-edge per layer reaches all of it), a
// deterministic first-to-first edge between consecutive layers, and fanout
// seeded random edges per vertex into the next layer. The last chain end
// wires to t.
func buildLayeredDAG(p map[string]int, seed int64) (*graph.G, error) {
	layers, width, fanout := p["layers"], p["width"], p["fanout"]
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(layers*width + 2).
		SetName(fmt.Sprintf("layereddag(layers=%d,width=%d,fanout=%d,seed=%d)", layers, width, fanout, seed))
	s, t := graph.VertexID(0), graph.VertexID(layers*width+1)
	b.SetRoot(s).SetTerminal(t)
	at := func(l, i int) graph.VertexID { return graph.VertexID(1 + l*width + i) }
	b.AddEdge(s, at(0, 0))
	for l := 0; l < layers; l++ {
		for i := 0; i+1 < width; i++ {
			b.AddEdge(at(l, i), at(l, i+1))
		}
		if l+1 < layers {
			b.AddEdge(at(l, 0), at(l+1, 0))
			for i := 0; i < width; i++ {
				for a := 0; a < fanout; a++ {
					b.AddEdge(at(l, i), at(l+1, rng.Intn(width)))
				}
			}
		}
	}
	b.AddEdge(at(layers-1, width-1), t)
	return b.Build()
}
