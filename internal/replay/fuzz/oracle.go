package fuzz

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/sim"
)

// Outcome is the schedule-independent footprint of one run: everything the
// paper proves invariant across asynchronous schedules. Metrics (bits,
// messages) are deliberately absent, and so are the concrete label values:
// *which* sub-interval of [0,1) a vertex ends up owning depends on the
// delivery order (the conformance suite itself demonstrates this — labels
// differ between fifo and lifo), while the labeled-vertex set, label
// uniqueness, and the single-interval shape of Theorem 5.1 hold under every
// schedule. The struct is comparable, so two runs agree iff their Outcomes
// are ==.
type Outcome struct {
	// Verdict is the run's verdict (terminated or quiescent).
	Verdict sim.Verdict
	// AllVisited reports whether every vertex received the broadcast.
	AllVisited bool
	// Labeled is the sorted set of vertices that received a label, rendered
	// as a string so Outcome stays comparable.
	Labeled string
	// TopoOK reports whether the extracted topology (mapcast only) is
	// isomorphic to the ground-truth graph.
	TopoOK bool
}

// String renders the footprint for diffs in failure messages.
func (o Outcome) String() string {
	return fmt.Sprintf("{verdict=%s allVisited=%v labeled=%s topoOK=%v}",
		o.Verdict, o.AllVisited, o.Labeled, o.TopoOK)
}

// Compute derives the schedule-independent footprint of a run plus a list
// of invariant violations (non-single-interval labels, labels that share a
// point, unreconstructable topologies). It has no testing dependency, so the
// replay shrinker and the schedule fuzzer use it as their oracle predicate
// exactly as the test matrix does.
func Compute(g *graph.G, r *sim.Result) (Outcome, []string) {
	o := Outcome{Verdict: r.Verdict, AllVisited: r.AllVisited()}
	var problems []string
	var labeled []int
	var labels []Label
	for v, node := range r.Nodes {
		ln, ok := node.(core.Labeled)
		if !ok {
			continue
		}
		u, has := ln.Label()
		if !has {
			continue
		}
		labeled = append(labeled, v)
		if r.Verdict == sim.Terminated {
			if u.NumIntervals() != 1 {
				problems = append(problems, fmt.Sprintf("vertex %d label %s is not a single interval", v, u))
			}
			labels = append(labels, Label{v, u})
		}
	}
	problems = append(problems, Overlaps(labels)...)
	sort.Ints(labeled)
	o.Labeled = fmt.Sprint(labeled)
	if topo, ok := r.Output.(*core.Topology); ok && r.Verdict == sim.Terminated {
		gg, err := topo.ToGraph()
		if err != nil {
			problems = append(problems, fmt.Sprintf("extracted topology does not rebuild: %v", err))
		} else {
			o.TopoOK = graph.Isomorphic(g, gg)
		}
	}
	return o, problems
}

// Label is the label U of vertex V.
type Label struct {
	V int
	U interval.Union
}

// Overlaps reports every pair of labels that share a point. Theorem 5.1's
// labels are pairwise disjoint, which is stronger than pairwise distinct,
// and the mapping protocol names a vertex by its label. Each label is
// checked against the union of the earlier ones, so disjoint labels cost
// one pass.
func Overlaps(labels []Label) []string {
	var problems []string
	var seen interval.Union
	for i, l := range labels {
		if !seen.Intersect(l.U).IsEmpty() {
			for _, p := range labels[:i] {
				if !p.U.Intersect(l.U).IsEmpty() {
					problems = append(problems, fmt.Sprintf("labels overlap: vertex %d owns %s, vertex %d owns %s", p.V, p.U, l.V, l.U))
				}
			}
		}
		seen.Absorb(l.U)
	}
	return problems
}
