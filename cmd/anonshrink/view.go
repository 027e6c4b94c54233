package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// keyLimit truncates the symbol keys the timeline prints, in bytes.
const keyLimit = 24

// view is the human view of a replayed run: a sim.Observer that writes one
// timeline line per event as it happens and tallies per-vertex counters
// for the summary. It keeps no event log; the trace is the log.
type view struct {
	g        *graph.G
	timeline io.Writer // nil: tally only
	acts     []activity
}

// activity is one vertex's traffic. first is the step of its first
// delivery, or -1.
type activity struct {
	recv, sent      int
	bitsIn, bitsOut int64
	first           int
}

var _ sim.Observer = (*view)(nil)

// newView returns a view of runs on g that writes its timeline to timeline
// (nil for none).
func newView(g *graph.G, timeline io.Writer) *view {
	acts := make([]activity, g.NumVertices())
	for v := range acts {
		acts[v].first = -1
	}
	return &view{g: g, timeline: timeline, acts: acts}
}

// OnSend implements sim.Observer.
func (v *view) OnSend(e graph.EdgeID, msg protocol.Message) {
	edge, bits := v.g.Edge(e), msg.Bits()
	a := &v.acts[edge.From]
	a.sent++
	a.bitsOut += int64(bits)
	if v.timeline != nil {
		fmt.Fprintf(v.timeline, "        send    v%d:%d -> v%d:%d  %4d bits  %q\n",
			edge.From, edge.FromPort, edge.To, edge.ToPort, bits, trimKey(msg.Key()))
	}
}

// OnDeliver implements sim.Observer.
func (v *view) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	edge, bits := v.g.Edge(e), msg.Bits()
	a := &v.acts[edge.To]
	a.recv++
	a.bitsIn += int64(bits)
	if a.first < 0 {
		a.first = step
	}
	if v.timeline != nil {
		fmt.Fprintf(v.timeline, "%6d  deliver v%d:%d -> v%d:%d  %4d bits\n",
			step, edge.From, edge.FromPort, edge.To, edge.ToPort, bits)
	}
}

func trimKey(k string) string {
	if len(k) > keyLimit {
		return k[:keyLimit] + "…"
	}
	return k
}

// writeSummary renders the per-vertex counters, marking the root (s) and
// the terminal (t).
func (v *view) writeSummary(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("vertex  recv   sent   bits-in  bits-out  first-step\n")
	for i, a := range v.acts {
		role := ""
		switch graph.VertexID(i) {
		case v.g.Root():
			role = " (s)"
		case v.g.Terminal():
			role = " (t)"
		}
		fmt.Fprintf(&sb, "v%-5d%s %-6d %-6d %-8d %-9d %d\n",
			i, role, a.recv, a.sent, a.bitsIn, a.bitsOut, a.first)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
