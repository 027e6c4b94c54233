package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

const (
	// setupReps is how many times a pass sets its workload up; setup_s is
	// the median.
	setupReps = 3
	// tracedRuns is the number of untraced and of traced runs in an engine
	// workload's traced pass.
	tracedRuns = 10
)

// instance is one generated input of an engine workload.
type instance struct {
	g     *graph.G
	proto protocol.Protocol
	opts  sim.Options
}

// engineSpec is a workload that runs a protocol on an in-memory engine. A
// seed yields `instances` inputs; the timed pass cycles through them in
// whole rounds, so every input weighs the same in each metric, and the
// traced pass studies the first.
type engineSpec struct {
	name      string
	why       string
	instances int
	shards    int // 0: the sequential engine
	size      int
	build     func(size int, seed int64) (*instance, error)
	check     func(in *instance, r *sim.Result) error
}

func (s *engineSpec) Name() string { return s.name }
func (s *engineSpec) Why() string  { return s.why }

// churnPlan is the churn formula of the repository's churn bench tier, over
// n internal vertices: two vertices crash after their first delivery and
// recover two deliveries later, and one edge is cut after its second send.
const churnPlan = "crash=%d:1,recover=%d:3,crash=%d:1,recover=%d:3,cut=%d:2"

func engineWorkloads() []*engineSpec {
	return []*engineSpec{
		{
			name:      "tree_seq",
			why:       "engine-bound control: scheduler, msgq, metering and the delivery loop carry most of a tree broadcast; it bypasses the protocol-heavy layers",
			instances: 8,
			size:      50_000,
			build:     buildTree,
			check:     checkTree,
		},
		{
			name:      "tree_shard2",
			why:       "the only workload on the sharded engine (partition, barriers, merge, ghosts, stealing); tree_seq is its same-input control",
			instances: 8,
			shards:    2,
			size:      50_000,
			build:     buildTree,
			check:     checkTree,
		},
		{
			name:      "scalefree_seq",
			why:       "protocol-bound: general broadcast on hub-heavy DAGs spends its time in core Receive and metering, which tree_seq barely touches",
			instances: 8,
			size:      600,
			build:     buildScalefree,
			check:     checkBroadcast,
		},
		{
			name:      "churn_seq",
			why:       "general broadcast on a cyclic torus under crash/recover/cut churn: fault checks and crashed deliveries on the hot path",
			instances: 16,
			size:      8,
			build:     buildChurn,
			check:     checkChurn,
		},
	}
}

// buildTree: the grounded-tree broadcast under the random adversary, with
// alphabet metering on.
func buildTree(size int, seed int64) (*instance, error) {
	return &instance{
		g:     graph.RandomGroundedTree(size, 0.2, seed),
		proto: core.NewTreeBroadcast(nil, core.RulePow2),
		opts:  sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed, TrackAlphabet: true},
	}, nil
}

// buildScalefree: the general broadcast on a preferential-attachment DAG.
func buildScalefree(size int, seed int64) (*instance, error) {
	g, err := scenario.Build("scalefree", map[string]int{"n": size, "m": 3}, seed)
	if err != nil {
		return nil, err
	}
	return &instance{
		g:     g,
		proto: core.NewGeneralBroadcast(nil),
		opts:  sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed, TrackAlphabet: true},
	}, nil
}

// buildChurn: the general broadcast on a size x size torus under churnPlan.
// The torus has no randomness, so the seed picks the schedule; unlike a
// random digraph, the torus keeps the work of a run nearly the same across
// schedules (about 1% spread in deliveries), which is what lets its metrics
// repeat across seeds.
func buildChurn(size int, seed int64) (*instance, error) {
	g, err := scenario.Build("torus", map[string]int{"w": size, "h": size}, seed)
	if err != nil {
		return nil, err
	}
	n := size * size
	faults, _, err := scenario.CompileSpec(fmt.Sprintf(churnPlan, n/3, n/3, n/2, n/2, n/4), g)
	if err != nil {
		return nil, err
	}
	return &instance{
		g:     g,
		proto: core.NewGeneralBroadcast(nil),
		opts:  sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed, TrackAlphabet: true, Faults: faults},
	}, nil
}

// checkBroadcast: a fault-free broadcast terminates after reaching everyone.
func checkBroadcast(in *instance, r *sim.Result) error {
	if r.Verdict != sim.Terminated || !r.AllVisited() {
		return fmt.Errorf("broadcast on %s: verdict %v, all visited %v", in.g, r.Verdict, r.AllVisited())
	}
	return nil
}

// checkTree: on a grounded tree every edge carries exactly one message.
func checkTree(in *instance, r *sim.Result) error {
	if err := checkBroadcast(in, r); err != nil {
		return err
	}
	if r.Steps != in.g.NumEdges() {
		return fmt.Errorf("tree broadcast on %s delivered %d messages over %d edges", in.g, r.Steps, in.g.NumEdges())
	}
	return nil
}

// checkChurn: churn may cost liveness but never safety — a run that
// terminates has reached everyone — and it must report its churn.
func checkChurn(in *instance, r *sim.Result) error {
	if r.Churn == nil {
		return fmt.Errorf("churn run on %s reported no churn", in.g)
	}
	if r.Verdict == sim.Terminated && !r.AllVisited() {
		return fmt.Errorf("churn run on %s terminated before reaching every vertex", in.g)
	}
	return nil
}

// subSeed is the seed of input i of a workload with k inputs; consecutive
// workload seeds never share an input.
func subSeed(seed int64, k, i int) int64 { return seed*int64(k) + int64(i) }

func (s *engineSpec) engine() sim.Engine {
	if s.shards > 0 {
		return shard.Engine(s.shards)
	}
	return sim.Sequential()
}

// outcome is what a run must repeat exactly: the deterministic counts of a
// (graph, protocol, scheduler, seed, engine) tuple. expected.json pins it for
// the pinned seeds, so |Sigma_G| and the bit counts cannot move unnoticed.
type outcome struct {
	Verdict        string `json:"verdict"`
	Deliveries     int    `json:"deliveries"`
	CommBits       int64  `json:"comm_bits"`
	AlphabetSize   int    `json:"alphabet_size"`
	MaxMsgBits     int    `json:"max_msg_bits"`
	PeakInFlight   int    `json:"peak_in_flight"`
	Dropped        int    `json:"dropped,omitempty"`
	ChurnEvents    int    `json:"churn_events,omitempty"`
	MaxRestabilize int64  `json:"max_restabilize,omitempty"`
	Steals         int    `json:"steals,omitempty"`
	StolenEdges    int    `json:"stolen_edges,omitempty"`
	CutEdges       int    `json:"cut_edges,omitempty"`
	GhostEdges     int    `json:"ghost_edges,omitempty"`
}

func outcomeOf(r *sim.Result) outcome {
	o := outcome{
		Verdict:      r.Verdict.String(),
		Deliveries:   r.Steps,
		CommBits:     r.Metrics.TotalBits,
		AlphabetSize: r.Metrics.AlphabetSize(),
		MaxMsgBits:   r.Metrics.MaxMsgBits,
		PeakInFlight: r.Metrics.PeakInFlight,
		Dropped:      r.Dropped,
		Steals:       r.Steals,
		StolenEdges:  r.StolenEdges,
	}
	if r.Churn != nil {
		o.ChurnEvents = len(r.Churn.Events)
		for i := range r.Churn.Events {
			o.MaxRestabilize = max(o.MaxRestabilize, r.Churn.Restabilize(i))
		}
	}
	return o
}

// withPartition adds the partition the sharded engine derives for in.
func (s *engineSpec) withPartition(o outcome, in *instance) outcome {
	if s.shards > 0 {
		p := graph.PartitionGraph(in.g, s.shards, in.opts.Seed)
		o.CutEdges, o.GhostEdges = p.CutEdges, p.GhostEdges
	}
	return o
}

// setup builds every input and runs each once, cold; the results are the
// references later runs must repeat.
func (s *engineSpec) setup(seed int64) ([]*instance, sim.Engine, []outcome, error) {
	insts := make([]*instance, s.instances)
	for i := range insts {
		in, err := s.build(s.size, subSeed(seed, s.instances, i))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s input %d: %w", s.name, i, err)
		}
		insts[i] = in
	}
	eng := s.engine()
	refs := make([]outcome, len(insts))
	for i, in := range insts {
		r, err := eng.Run(in.g, in.proto, in.opts)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s input %d: %w", s.name, i, err)
		}
		if err := s.check(in, r); err != nil {
			return nil, nil, nil, fmt.Errorf("%s input %d: %w", s.name, i, err)
		}
		refs[i] = outcomeOf(r)
	}
	return insts, eng, refs, nil
}

// pin computes the pinned outcomes of seed.
func (s *engineSpec) pin(seed int64) (*pinned, error) {
	insts, _, refs, err := s.setup(seed)
	if err != nil {
		return nil, err
	}
	for i, in := range insts {
		refs[i] = s.withPartition(refs[i], in)
	}
	return &pinned{Outcomes: refs}, nil
}

// mismatched reports, per input, whether its reference disagrees with the
// pinned outcome (always false when the seed is not pinned).
func (s *engineSpec) mismatched(insts []*instance, refs []outcome, want *pinned) []bool {
	bad := make([]bool, len(insts))
	if want == nil {
		return bad
	}
	for i, in := range insts {
		bad[i] = i >= len(want.Outcomes) || s.withPartition(refs[i], in) != want.Outcomes[i]
	}
	return bad
}

// timed is the end-to-end pass: set up setupReps times, then run the inputs
// round after round until the duration has passed, tracing off and no GC
// forced between runs. Each run must repeat its input's reference outcome.
func (s *engineSpec) timed(seed int64, dur time.Duration, want *pinned) (*passResult, error) {
	resetPeakRSS()
	var (
		insts  []*instance
		eng    sim.Engine
		refs   []outcome
		setups []float64
		err    error
	)
	for range setupReps {
		t0 := time.Now()
		insts, eng, refs, err = s.setup(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	bad := s.mismatched(insts, refs, want)

	pr := &passResult{}
	pr.metrics, err = measure(setups, func() []float64 {
		lat := make([]float64, 0, 4096)
		for start := time.Now(); ; {
			for i, in := range insts {
				t0 := time.Now()
				r, err := eng.Run(in.g, in.proto, in.opts)
				lat = append(lat, ms(time.Since(t0)))
				pr.attempted++
				if err != nil || bad[i] || outcomeOf(r) != refs[i] {
					pr.failed++
				}
			}
			if time.Since(start) >= dur {
				return lat
			}
		}
	})
	return pr, err
}

// traced is the per-layer pass on the workload's first input: untraced runs
// for the baseline, runs with timed Receive calls for the in-situ spans, and
// one captured run for the offline replays.
func (s *engineSpec) traced(seed int64, want *pinned) (*passResult, error) {
	pr := &passResult{}
	m := map[string]float64{}
	pr.metrics = m

	var builds []float64
	var in *instance
	for range setupReps {
		t0 := time.Now()
		var err error
		if in, err = s.build(s.size, subSeed(seed, s.instances, 0)); err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	m["graph.build_ms"] = median(builds)
	eng := s.engine()
	res, err := eng.Run(in.g, in.proto, in.opts)
	if err != nil {
		return nil, err
	}
	if err := s.check(in, res); err != nil {
		return nil, err
	}
	ref := outcomeOf(res)
	bad := s.mismatched([]*instance{in}, []outcome{ref}, want)[0]
	// verify counts one checked op: the run must repeat the reference.
	verify := func(r *sim.Result, err error) {
		pr.attempted++
		if err != nil || bad || outcomeOf(r) != ref {
			pr.failed++
		}
	}

	// Untraced and traced runs alternate (on tree_shard2 with a sequential
	// run of the same input as well), so drift in machine speed hits both
	// sides alike. Layer shares divide by busyNS: the traced runs' mean wall
	// time minus the clock reads of their spans (two per span), times the
	// number of shards working in parallel — an estimate of the time the
	// untraced run holds its workers.
	workers := max(1, s.shards)
	spanNS := calibrateSpan()
	origin := time.Now()
	var base, seqLat []float64
	var busyNS float64
	for range tracedRuns {
		t0 := time.Now()
		r, err := eng.Run(in.g, in.proto, in.opts)
		base = append(base, ms(time.Since(t0)))
		verify(r, err)
		if s.shards > 0 {
			t0 = time.Now()
			_, err := sim.Run(in.g, in.proto, in.opts)
			seqLat = append(seqLat, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
		}

		opts := in.opts
		var rec *obs.Recorder
		if s.shards > 0 {
			rec = obs.NewRecorder(0)
			opts.Obs = rec
		}
		t0 = time.Now()
		r, err = eng.Run(in.g, decorate(in.proto, in.g.NumVertices()), opts)
		dur := time.Since(t0)
		verify(r, err)
		if err != nil {
			continue
		}
		calls, ns := receiveTotals(r.Nodes)
		children := []*span{leaf("core.receive", calls, ns, spanNS)}
		if rec != nil {
			children = shardPhases(rec.Report().Phases, children[0], s.shards)
			m["shard.supersteps"] += float64(len(rec.Timeline().Supersteps)) / tracedRuns
		}
		pr.spans = append(pr.spans, root("run", t0, origin, dur, children...))
		busyNS += float64(dur) - 2*spanNS*float64(calls)/float64(workers)
	}
	busyNS = busyNS / float64(max(len(pr.spans), 1)) * float64(workers)
	baseMS := median(base)

	capt := &capture{}
	opts := in.opts
	opts.Observer = capt
	r, err := eng.Run(in.g, in.proto, opts)
	verify(r, err)
	if err != nil {
		return nil, err
	}
	pr.attempted++
	rp, err := replay(in.g, in.proto, in.opts, r, capt.events, s.shards == 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
		pr.failed++
		rp = &replayed{}
	}

	receivePath := []string{"core.receive"}
	if s.shards > 0 {
		receivePath = []string{"shard.drain", "core.receive"}
	}
	recvCalls, _, recvNS := meanChild(pr.spans, receivePath...)
	m["sim.sched.calls"] = float64(rp.schedCalls)
	m["sim.sched.ns_per_call"] = ratio(rp.schedNS, float64(rp.schedCalls))
	m["sim.sched.share"] = rp.schedNS / busyNS
	m["msgq.ns_per_op"] = ratio(rp.msgqNS, float64(rp.msgqOps))
	m["msgq.share"] = rp.msgqNS / busyNS
	m["msgq.peak_in_flight"] = float64(rp.peak)
	m["protocol.intern_ns_per_send"] = ratio(rp.meterNS, float64(rp.sends))
	m["protocol.allocs_per_send"] = ratio(rp.meterAllocs, float64(rp.sends))
	m["protocol.share"] = rp.meterNS / busyNS
	m["protocol.comm_bits"] = float64(ref.CommBits)
	m["protocol.alphabet_size"] = float64(ref.AlphabetSize)
	m["protocol.max_msg_bits"] = float64(ref.MaxMsgBits)
	m["core.receives"] = recvCalls
	m["core.ns_per_receive"] = ratio(recvNS, recvCalls)
	m["core.share"] = recvNS / busyNS
	m["core.allocs_per_receive"] = ratio(rp.coreAllocs, float64(rp.receives))
	m["core.bytes_per_receive"] = ratio(rp.coreBytes, float64(rp.receives))
	m["core.sends_per_receive"] = ratio(float64(rp.coreSends), float64(rp.receives))
	m["sim.faults.ns_per_check"] = ratio(rp.faultsNS, float64(rp.faultChecks))
	m["sim.faults.share"] = rp.faultsNS / busyNS
	m["sim.faults.dropped"] = float64(ref.Dropped)
	m["sim.faults.churn_events"] = float64(ref.ChurnEvents)
	m["sim.faults.max_restabilize"] = float64(ref.MaxRestabilize)
	m["sim.deliveries"] = float64(ref.Deliveries)
	m["sim.loop_share"] = 1 - m["sim.sched.share"] - m["msgq.share"] - m["protocol.share"] - m["core.share"] - m["sim.faults.share"]
	m["trace.span_ns"] = spanNS
	m["trace.overhead"] = median(rootDurations(pr.spans))/baseMS - 1

	if s.shards > 0 {
		_, drainNS, _ := meanChild(pr.spans, "shard.drain")
		_, mergeNS, _ := meanChild(pr.spans, "shard.merge")
		m["shard.drain_ms"] = drainNS / 1e6
		m["shard.merge_ms"] = mergeNS / 1e6
		m["shard.merge_share"] = mergeNS * float64(workers) / busyNS
		m["shard.steals"] = float64(ref.Steals)
		m["shard.stolen_edges"] = float64(ref.StolenEdges)
		m["shard.speedup_vs_seq"] = median(seqLat) / baseMS

		var parts []float64
		var p *graph.Partition
		for range setupReps {
			t0 := time.Now()
			p = graph.PartitionGraph(in.g, s.shards, in.opts.Seed)
			parts = append(parts, ms(time.Since(t0)))
		}
		m["graph.partition_ms"] = median(parts)
		m["graph.cut_edges"] = float64(p.CutEdges)
		m["graph.effective_cut_edges"] = float64(p.EffectiveCutEdges())
	}
	return pr, nil
}

// shardPhases turns the sharded engine's wall-clock phases into spans. The
// Receive calls run inside the drain phase on all shards at once, so the
// drain's self time subtracts their total divided by the shard count.
func shardPhases(phases []obs.Phase, receive *span, shards int) []*span {
	var out []*span
	for _, ph := range phases {
		total := int64(ph.WallMS * 1e6)
		sp := &span{Name: "shard." + ph.Name, Count: ph.Count, TotalNS: total, SelfNS: total}
		if ph.Name == "drain" {
			sp.Children = []*span{receive}
			sp.SelfNS = max(total-receive.SelfNS/int64(shards), 0)
		}
		out = append(out, sp)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
