package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// labeledNode is a node that reports a fixed label.
type labeledNode struct {
	protocol.NopNode
	label interval.Union
}

func (n labeledNode) Label() (interval.Union, bool) { return n.label, true }

// span returns the one-interval union [lo/8, hi/8).
func span(lo, hi uint64) interval.Union {
	return interval.NewUnion(interval.Interval{Lo: dyadic.FromFrac(lo, 3), Hi: dyadic.FromFrac(hi, 3)})
}

// TestComputeReportsOverlappingLabels feeds Compute runs whose labels are
// disjoint, equal, and overlapping but unequal. Only the disjoint run is
// clean, and the overlapping pair is reported although no two keys match.
func TestComputeReportsOverlappingLabels(t *testing.T) {
	g := graph.Chain(3)
	for _, c := range []struct {
		name   string
		labels []interval.Union
		pair   []int // the overlapping labels' indexes, or nil for none
	}{
		{"disjoint", []interval.Union{span(0, 1), span(1, 3), span(4, 8)}, nil},
		{"equal", []interval.Union{span(0, 2), span(4, 5), span(0, 2)}, []int{0, 2}},
		{"overlapping", []interval.Union{span(4, 6), span(0, 1), span(5, 8)}, []int{0, 2}},
	} {
		want := ""
		if c.pair != nil {
			a, b := c.pair[0], c.pair[1]
			want = fmt.Sprintf("vertex %d owns %s, vertex %d owns %s", a+1, c.labels[a], b+1, c.labels[b])
		}
		r := &sim.Result{Verdict: sim.Terminated, Nodes: make([]protocol.Node, len(c.labels)+2)}
		r.Nodes[0], r.Nodes[len(r.Nodes)-1] = protocol.NopNode{}, protocol.NopNode{}
		for i, u := range c.labels {
			r.Nodes[i+1] = labeledNode{label: u}
		}
		_, problems := Compute(g, r)
		switch {
		case want == "" && len(problems) != 0:
			t.Fatalf("%s: problems %q, want none", c.name, problems)
		case want != "" && (len(problems) != 1 || !strings.Contains(problems[0], want)):
			t.Fatalf("%s: problems %q, want one naming %q", c.name, problems, want)
		}
	}
}
