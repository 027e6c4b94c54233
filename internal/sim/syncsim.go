package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// RunSynchronous executes p on g under the synchronous model the paper
// mentions as a direct extension (Section 2): computation proceeds in global
// rounds; every message sent in round k is delivered at the start of round
// k+1. This engine adds a time measure — Result.Rounds — that the
// asynchronous model deliberately has no counterpart for.
//
// Verdicts (Terminated / Quiescent) necessarily agree with the asynchronous
// engines: a synchronous schedule is one particular asynchronous schedule,
// and the protocols' outcomes are schedule-independent. Tests assert this.
func RunSynchronous(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	nV, nE := g.NumVertices(), g.NumEdges()
	nodes, term, err := BuildNodes(g, p)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Visited: make([]bool, nV),
		Nodes:   nodes,
		Metrics: newMetrics(nE, &opts),
	}
	defer res.Metrics.finalize()
	mt := meter{m: &res.Metrics}
	defer mt.close()
	res.Visited[g.Root()] = true

	faults, err := NewFaultState(g, &opts)
	if err != nil {
		return nil, err
	}
	defer func() { res.Dropped, res.Churn = faults.Dropped(), faults.ChurnReport() }()

	// Telemetry: one track; each global round is one superstep row, so the
	// timeline charts queue growth round by round. "sync" matches the
	// scheduler name recorded traces carry for this engine.
	var tr *obs.Track
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), "sync", opts.Seed, 1)
		tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase("rounds")
		defer stop()
	}

	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	type flight struct {
		edge graph.EdgeID
		msg  protocol.Message
	}
	inits, err := InitialMessages(g, p)
	if err != nil {
		return nil, err
	}
	var current []flight
	for j, init := range inits {
		if init == nil {
			continue
		}
		rootEdge := g.OutEdge(g.Root(), j)
		mt.record(rootEdge.ID, init)
		if opts.Observer != nil {
			opts.Observer.OnSend(rootEdge.ID, init)
		}
		tr.Send()
		if faults.DropSend(rootEdge.ID) {
			tr.Dropped()
			continue
		}
		res.Metrics.sent()
		tr.Enqueued()
		current = append(current, flight{edge: rootEdge.ID, msg: init})
	}

	for len(current) > 0 {
		res.Rounds++
		roundStart := res.Steps
		var next []flight
		for _, f := range current {
			if res.Steps >= maxSteps {
				return res, fmt.Errorf("%w (%d steps, graph %s, protocol %s)", ErrStepLimit, res.Steps, g, p.Name())
			}
			res.Steps++
			res.Metrics.delivered()
			edge := g.Edge(f.edge)
			if faults.CrashDelivery(edge.To) {
				// Crash-stopped vertex: consume without processing (see the
				// sequential engine's crash hook for the semantics).
				if opts.Observer != nil {
					opts.Observer.OnDeliver(res.Steps, f.edge, f.msg)
				}
				tr.Delivered(true)
				continue
			}
			res.Visited[edge.To] = true
			if opts.Observer != nil {
				opts.Observer.OnDeliver(res.Steps, f.edge, f.msg)
			}
			outs, err := nodes[edge.To].Receive(f.msg, edge.ToPort)
			if err != nil {
				return res, fmt.Errorf("sim: vertex %d receive: %w", edge.To, err)
			}
			if outs != nil && len(outs) != g.OutDegree(edge.To) {
				return res, fmt.Errorf("sim: vertex %d returned %d outputs, out-degree is %d",
					edge.To, len(outs), g.OutDegree(edge.To))
			}
			outIDs := g.OutEdgeIDs(edge.To)
			for j, out := range outs {
				if out == nil {
					continue
				}
				oe := outIDs[j]
				mt.record(oe, out)
				if opts.Observer != nil {
					opts.Observer.OnSend(oe, out)
				}
				tr.Send()
				if faults.DropSend(oe) {
					tr.Dropped()
					continue
				}
				res.Metrics.sent()
				tr.Enqueued()
				next = append(next, flight{edge: oe, msg: out})
			}
			tr.Delivered(false)
			if edge.To == g.Terminal() && term.Done() {
				res.Verdict = Terminated
				res.Output = term.Output()
				if opts.Obs != nil {
					opts.Obs.Superstep([]int64{int64(res.Steps - roundStart)})
				}
				return res, nil
			}
		}
		if opts.Obs != nil {
			opts.Obs.Superstep([]int64{int64(res.Steps - roundStart)})
		}
		current = next
	}
	res.Verdict = Quiescent
	return res, nil
}
