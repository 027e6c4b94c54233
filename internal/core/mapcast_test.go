package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// verifyTopology checks that the extracted topology is exactly isomorphic to
// the ground-truth graph, using the omniscient label->vertex assignment from
// the final node states.
func verifyTopology(t *testing.T, g *graph.G, r *sim.Result) {
	t.Helper()
	topo, ok := r.Output.(*Topology)
	if !ok {
		t.Fatalf("output is %T, not *Topology", r.Output)
	}
	if topo.NumVertices() != g.NumVertices() {
		t.Fatalf("%s: extracted |V| = %d, want %d", g, topo.NumVertices(), g.NumVertices())
	}
	if topo.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: extracted |E| = %d, want %d", g, topo.NumEdges(), g.NumEdges())
	}
	// Build label-key -> vertex ID from final states.
	byLabel := map[string]graph.VertexID{}
	for v, n := range r.Nodes {
		if ln, isL := n.(Labeled); isL {
			if lab, has := ln.Label(); has {
				byLabel[lab.Intervals()[0].String()] = graph.VertexID(v)
			}
		}
	}
	resolve := func(e Endpoint) graph.VertexID {
		switch e.Kind {
		case EndpointRoot:
			return g.Root()
		case EndpointTerminal:
			return g.Terminal()
		default:
			v, ok := byLabel[e.Label.String()]
			if !ok {
				t.Fatalf("%s: endpoint %s matches no vertex label", g, e.Key())
			}
			return v
		}
	}
	seen := map[string]bool{}
	for _, rec := range topo.Edges {
		from, to := resolve(rec.From), resolve(rec.To)
		// The record must describe a real edge with exactly these ports.
		if rec.OutPort >= g.OutDegree(from) {
			t.Fatalf("%s: record %s has out-port beyond degree", g, rec)
		}
		e := g.OutEdge(from, rec.OutPort)
		if e.To != to || e.ToPort != rec.InPort {
			t.Fatalf("%s: record %s does not match real edge %+v", g, rec, e)
		}
		if rec.FromOutDeg != g.OutDegree(from) {
			t.Fatalf("%s: record %s declares out-degree %d, real %d", g, rec, rec.FromOutDeg, g.OutDegree(from))
		}
		k := rec.Key()
		if seen[k] {
			t.Fatalf("%s: duplicate record %s", g, rec)
		}
		seen[k] = true
	}
	// Count matched |E| and all records distinct and valid => bijection.
}

func TestMapExtractRecoversTopology(t *testing.T) {
	p := NewMapExtract(nil)
	for _, g := range generalFamilies() {
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: verdict %s", g, r.Verdict)
		}
		// Re-run on the deterministic engine to pair Output with Nodes from
		// the same execution.
		rr, err := sim.Run(g, p, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, rr.Verdict)
		}
		verifyTopology(t, g, rr)
	}
}

// parallelEdgeGraph has two parallel edges 1->2 and a cycle 2->1.
func parallelEdgeGraph(t *testing.T) *graph.G {
	t.Helper()
	b := graph.NewBuilder(4).SetRoot(0).SetTerminal(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2).AddEdge(1, 2).AddEdge(1, 3)
	b.AddEdge(2, 3).AddEdge(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// orphanGraph has vertices with no path to the terminal, so mapping never
// terminates on it.
func orphanGraph() *graph.G {
	return graph.RandomDigraph(12, 5, graph.RandomDigraphOpts{ExtraEdges: 10, Orphans: 2, TerminalFrac: 0.3})
}

func TestMapExtractOnParallelEdges(t *testing.T) {
	// Parallel edges and multi-port wiring must be reconstructed exactly:
	// anonymous networks distinguish ports, not neighbours.
	g := parallelEdgeGraph(t)
	r, err := sim.Run(g, NewMapExtract(nil), sim.Options{Scheduler: sim.NewLIFOScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	verifyTopology(t, g, r)
}

func TestMapExtractNonTerminationWithOrphans(t *testing.T) {
	g := orphanGraph()
	r := runAllSchedules(t, g, NewMapExtract(nil), sim.Options{})
	if r.Verdict != sim.Quiescent {
		t.Fatalf("verdict %s, want quiescent", r.Verdict)
	}
}

func TestMapExtractLabelsStillUniqueAndDisjoint(t *testing.T) {
	g := graph.LayeredDigraph(4, 4, 3)
	r, err := sim.Run(g, NewMapExtract(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	var labs []interval.Union
	for _, n := range r.Nodes {
		if ln, ok := n.(Labeled); ok {
			if lab, has := ln.Label(); has {
				labs = append(labs, lab)
			}
		}
	}
	if len(labs) != g.NumVertices()-2 {
		t.Fatalf("labeled %d vertices, want %d", len(labs), g.NumVertices()-2)
	}
	for i := range labs {
		for j := i + 1; j < len(labs); j++ {
			if !labs[i].Intersect(labs[j]).IsEmpty() {
				t.Fatalf("labels %s and %s overlap", labs[i], labs[j])
			}
		}
	}
}

func TestEndpointAndRecordKeys(t *testing.T) {
	root := Endpoint{Kind: EndpointRoot}
	term := Endpoint{Kind: EndpointTerminal}
	lab := Endpoint{Kind: EndpointLabeled, Label: interval.Full()}
	if root.Key() == term.Key() || root.Key() == lab.Key() || term.Key() == lab.Key() {
		t.Fatal("endpoint keys collide")
	}
	r1 := EdgeRecord{From: root, FromOutDeg: 1, OutPort: 0, To: lab, InPort: 0}
	r2 := EdgeRecord{From: root, FromOutDeg: 1, OutPort: 0, To: lab, InPort: 1}
	if r1.Key() == r2.Key() {
		t.Fatal("edge record keys collide on differing in-port")
	}
	if r1.Bits() <= 0 {
		t.Fatal("record bits must be positive")
	}
}

// TestMapExtractIsomorphicWithoutIdentities verifies extraction with zero
// privileged knowledge: materialize the extracted topology as a graph and
// compare canonical forms — the strongest possible black-box check.
func TestMapExtractIsomorphicWithoutIdentities(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.RandomDigraph(15, seed, graph.RandomDigraphOpts{ExtraEdges: 18, TerminalFrac: 0.3})
		r, err := sim.Run(g, NewMapExtract(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		topo := r.Output.(*Topology)
		extracted, err := topo.ToGraph()
		if err != nil {
			t.Fatalf("%s: ToGraph: %v", g, err)
		}
		if !graph.Isomorphic(g, extracted) {
			t.Fatalf("%s: extracted topology not isomorphic to ground truth:\n%s\n%s",
				g, g.CanonicalString(), extracted.CanonicalString())
		}
	}
}

// closureOracle is the terminal's stopping predicate and output computed from
// scratch over every record: index the records by source, walk breadth-first
// from the root over out-ports, and require every discovered vertex other
// than t to have all its declared out-ports recorded. The terminal maintains
// the same predicate incrementally.
func closureOracle(records map[string]EdgeRecord) (*Topology, bool) {
	bySrc := map[string]map[int]EdgeRecord{}
	degOf := map[string]int{}
	for _, r := range records {
		k := r.From.Key()
		if bySrc[k] == nil {
			bySrc[k] = map[int]EdgeRecord{}
		}
		bySrc[k][r.OutPort] = r
		degOf[k] = r.FromOutDeg
	}
	root := Endpoint{Kind: EndpointRoot}
	topo := &Topology{Vertices: []Endpoint{root, {Kind: EndpointTerminal}}}
	visited := map[string]bool{root.Key(): true, "t": true}
	queue := []string{root.Key()}
	closed := true
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		deg, known := degOf[k]
		if !known {
			closed = false
			continue
		}
		for port := 0; port < deg; port++ {
			r, ok := bySrc[k][port]
			if !ok {
				closed = false
				continue
			}
			topo.Edges = append(topo.Edges, r)
			tk := r.To.Key()
			if !visited[tk] {
				visited[tk] = true
				topo.Vertices = append(topo.Vertices, r.To)
				queue = append(queue, tk)
			}
		}
	}
	sort.Slice(topo.Edges, func(i, j int) bool { return topo.Edges[i].Key() < topo.Edges[j].Key() })
	return topo, closed
}

// oracleMap runs MapExtract with a terminal that checks, after every
// delivery, that the incremental predicate agrees with closureOracle. It
// embeds the Protocol interface, not *MapExtract, so that MapExtract's
// NewNodes is not promoted past this NewNode.
type oracleMap struct{ protocol.Protocol }

func (p oracleMap) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &oracleTerminal{mapTerminal: newMapTerminal(), records: map[string]EdgeRecord{}}
	}
	return p.Protocol.NewNode(inDeg, outDeg, role)
}

type oracleTerminal struct {
	*mapTerminal
	records    map[string]EdgeRecord
	deliveries int
	mismatch   string // the first disagreement, if any
}

func (o *oracleTerminal) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	outs, err := o.mapTerminal.Receive(msg, inPort)
	if err != nil {
		return outs, err
	}
	m := msg.(mapMsg)
	for _, r := range m.records {
		o.records[r.Key()] = r
	}
	own := EdgeRecord{From: m.sender, FromOutDeg: m.senderDeg, OutPort: m.outPort, To: Endpoint{Kind: EndpointTerminal}, InPort: inPort}
	o.records[own.Key()] = own
	o.deliveries++
	if _, closed := closureOracle(o.records); o.Done() != closed && o.mismatch == "" {
		o.mismatch = fmt.Sprintf("delivery %d: Done() = %v, closure says %v", o.deliveries, o.Done(), closed)
	}
	return outs, nil
}

// renderTopology prints a topology with its vertex and edge order.
func renderTopology(topo *Topology) string {
	var sb strings.Builder
	for _, v := range topo.Vertices {
		fmt.Fprintf(&sb, "v %s\n", v.Key())
	}
	for _, e := range topo.Edges {
		fmt.Fprintf(&sb, "e %s %s\n", e, e.Key())
	}
	return sb.String()
}

// TestMapTerminalMatchesClosureOracle checks the incremental stopping
// predicate against a from-scratch closure after every delivery, and the
// extracted topology against the closure's, order included, across
// schedules, graph shapes and fault plans.
func TestMapTerminalMatchesClosureOracle(t *testing.T) {
	type input struct {
		name   string
		g      *graph.G
		faults sim.Faults
		// quiescent is set where the faults must keep mapping from
		// terminating.
		quiescent bool
	}
	var inputs []input
	for seed := int64(0); seed < 3; seed++ {
		inputs = append(inputs,
			input{name: fmt.Sprintf("dag%d", seed), g: graph.RandomDAG(30, 60, seed)},
			input{name: fmt.Sprintf("cyclic%d", seed), g: graph.RandomDigraph(25, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})})
	}
	inputs = append(inputs,
		input{name: "parallel", g: parallelEdgeGraph(t)},
		input{name: "orphans", g: orphanGraph(), quiescent: true})
	for seed := int64(0); seed < 3; seed++ {
		g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{ExtraEdges: 30, TerminalFrac: 0.2})
		inputs = append(inputs, input{name: fmt.Sprintf("loss%d", seed), g: g, faults: sim.Faults{LossRate: 0.05, Seed: seed}})
		// The root's successor never reports its first out-port.
		first := g.OutEdge(g.Root(), 0).To
		cut := g.OutEdge(first, 0).ID
		inputs = append(inputs, input{name: fmt.Sprintf("cut%d", seed), g: g, faults: sim.Faults{CutAfter: map[graph.EdgeID]int{cut: 0}}, quiescent: true})
		drop := map[graph.EdgeID]int{}
		for e := 0; e < g.NumEdges(); e += 4 {
			drop[graph.EdgeID(e)] = 1
		}
		inputs = append(inputs, input{name: fmt.Sprintf("drop%d", seed), g: g, faults: sim.Faults{DropFirst: drop}})
	}
	p := oracleMap{NewMapExtract([]byte("m"))}
	for _, in := range inputs {
		for _, newSched := range []func() sim.Scheduler{sim.NewFIFOScheduler, sim.NewLIFOScheduler, sim.NewRandomScheduler} {
			sched := newSched()
			order := sched.Name()
			r, err := sim.Run(in.g, p, sim.Options{Scheduler: sched, Seed: 9, Faults: &in.faults})
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, order, err)
			}
			term := r.Nodes[in.g.Terminal()].(*oracleTerminal)
			if term.mismatch != "" {
				t.Fatalf("%s %s: %s", in.name, order, term.mismatch)
			}
			if in.quiescent && r.Verdict != sim.Quiescent {
				t.Fatalf("%s %s: verdict %s, want quiescent", in.name, order, r.Verdict)
			}
			if r.Verdict == sim.Terminated && !r.AllVisited() {
				t.Fatalf("%s %s: terminated before every vertex received", in.name, order)
			}
			want, _ := closureOracle(term.records)
			got := term.Output().(*Topology)
			if renderTopology(got) != renderTopology(want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: output differs from the closure's:\n%s\nwant\n%s", in.name, order, renderTopology(got), renderTopology(want))
			}
		}
	}
}

// TestMapKeysMatchFmtComposition pins EdgeRecord.Key and mapMsg.Key to the
// fmt compositions they replaced, because anonshrink timelines and the
// Alphabet/FirstSymbol maps print keys.
func TestMapKeysMatchFmtComposition(t *testing.T) {
	endpointKey := func(e Endpoint) string {
		switch e.Kind {
		case EndpointRoot:
			return "s"
		case EndpointTerminal:
			return "t"
		default:
			return e.Label.String()
		}
	}
	recordKey := func(r EdgeRecord) string {
		return fmt.Sprintf("%s#%d->%s#%d", endpointKey(r.From), r.OutPort, endpointKey(r.To), r.InPort)
	}
	msgKey := func(m mapMsg) string {
		var sb strings.Builder
		sb.WriteString(m.gc.Key())
		sb.WriteByte('|')
		sb.WriteString(endpointKey(m.sender))
		fmt.Fprintf(&sb, "#%d/%d|", m.outPort, m.senderDeg)
		keys := make([]string, len(m.records))
		for i, r := range m.records {
			keys[i] = recordKey(r)
		}
		sort.Strings(keys)
		sb.WriteString(strings.Join(keys, ";"))
		return sb.String()
	}
	rng := rand.New(rand.NewSource(5))
	endpoint := func() Endpoint {
		switch rng.Intn(4) {
		case 0:
			return Endpoint{Kind: EndpointRoot}
		case 1:
			return Endpoint{Kind: EndpointTerminal}
		}
		u := randUnion(rng, 3, 40, uint(rng.Intn(30)))
		for u.IsEmpty() {
			u = randUnion(rng, 3, 40, 0)
		}
		if rng.Intn(2) == 0 {
			// Built by hand, without a cached key.
			return Endpoint{Kind: EndpointLabeled, Label: u.Intervals()[0]}
		}
		return labeledEndpoint(u.Intervals()[0])
	}
	ports := []int{0, 1, 9, 10, 12, 345, 100000}
	port := func() int { return ports[rng.Intn(len(ports))] }
	for i := 0; i < 1000; i++ {
		m := mapMsg{
			gc:        gcMsg{alpha: randUnion(rng, 4, 40, 0), beta: randUnion(rng, 4, 40, 20)},
			sender:    endpoint(),
			senderDeg: port(),
			outPort:   port(),
		}
		for n := []int{0, 1, 2, 7}[i%4]; len(m.records) < n; {
			m.records = append(m.records, EdgeRecord{From: endpoint(), FromOutDeg: port(), OutPort: port(), To: endpoint(), InPort: port()})
		}
		for _, r := range m.records {
			if got, want := r.Key(), recordKey(r); got != want {
				t.Fatalf("EdgeRecord.Key() = %q, want %q", got, want)
			}
		}
		if got, want := m.Key(), msgKey(m); got != want {
			t.Fatalf("mapMsg.Key() = %q, want %q", got, want)
		}
	}
}

// TestMapTerminalAnyRecordOrder feeds the records of complete runs to a
// terminal in shuffled orders, which reach vertices after their out-edges
// were recorded more often than flooding does, and checks the predicate
// against closureOracle after every record.
func TestMapTerminalAnyRecordOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.G{
		graph.RandomDAG(15, 30, 1),
		graph.RandomDigraph(15, 2, graph.RandomDigraphOpts{ExtraEdges: 20, TerminalFrac: 0.2}),
		parallelEdgeGraph(t),
	} {
		r, err := sim.Run(g, NewMapExtract(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		recs := r.Nodes[g.Terminal()].(*mapTerminal).recs
		for trial := 0; trial < 20; trial++ {
			term := newMapTerminal()
			records := map[string]EdgeRecord{}
			for i, j := range rng.Perm(len(recs)) {
				term.add(recs[j])
				records[recs[j].Key()] = recs[j]
				if _, closed := closureOracle(records); term.Done() != closed {
					t.Fatalf("%s, trial %d, record %d: Done() = %v, closure says %v", g, trial, i, term.Done(), closed)
				}
			}
			if want, _ := closureOracle(records); renderTopology(term.Output().(*Topology)) != renderTopology(want) {
				t.Fatalf("%s, trial %d: output differs from the closure's", g, trial)
			}
		}
	}
}
