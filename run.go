package anonnet

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/netrun"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/replay/fuzz"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// Engine selects the execution substrate. All five engines implement the
// same internal sim.Engine interface; this enum is the facade's stable way
// to name them.
type Engine int

// Available engines.
const (
	// EngineSequential is the deterministic event-driven simulator with an
	// adversarial delivery order (default). It honors the scheduler options
	// (WithScheduler / WithSeed), as does EngineSharded — one
	// scheduler instance per shard; the other engines ignore them.
	EngineSequential Engine = iota
	// EngineConcurrent runs one goroutine per vertex; interleaving comes
	// from the Go scheduler.
	EngineConcurrent
	// EngineSynchronous runs in global rounds (every message sent in round k
	// arrives in round k+1) and additionally reports Report.Rounds, the time
	// complexity the asynchronous model has no counterpart for. A
	// synchronous run is the fifo schedule: this is EngineSequential under
	// fifo, whatever the request's scheduler, with a round clock.
	EngineSynchronous
	// EngineTCP runs the network over localhost TCP: messages travel as
	// actual wire-encoded bytes. Reported bits include the wire framing.
	// Vertices are grouped into workers, each with one goroutine and one
	// listener, and every ordered worker pair with an edge between them
	// shares one connection. By default every vertex is its own worker;
	// WithShards(n >= 2) groups them by the shard partition, so the socket
	// count follows the partition instead of the graph.
	EngineTCP
	// EngineSharded partitions the network (seeded multi-way edge-cut), runs
	// one sequential delivery loop per shard on the worker pool, and merges
	// cross-shard traffic deterministically — multi-core speedup for a single
	// run, same schedule-independent outcome as the sequential engine, fully
	// deterministic for a fixed (scheduler, seed, shard count). Configure the
	// shard count with WithShards (default DefaultShards).
	EngineSharded
)

// DefaultShards is the shard count EngineSharded uses when WithShards was
// not given. A fixed default (rather than GOMAXPROCS) keeps results
// reproducible across machines; tune it per host with WithShards.
const DefaultShards = 4

// engineNames holds each engine's CLI name, indexed by Engine;
// engineAliases the long spellings EngineByName accepts as well.
var (
	engineNames   = [...]string{"seq", "concurrent", "sync", "tcp", "shard"}
	engineAliases = map[string]Engine{"sequential": EngineSequential, "synchronous": EngineSynchronous, "sharded": EngineSharded}
)

// String returns the engine's CLI name.
func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineByName parses a CLI engine name (seq|concurrent|sync|tcp|shard).
func EngineByName(name string) (Engine, error) {
	if i := slices.Index(engineNames[:], name); i >= 0 {
		return Engine(i), nil
	}
	if e, ok := engineAliases[name]; ok {
		return e, nil
	}
	return 0, fmt.Errorf("anonnet: unknown engine %q (have %s)", name, strings.Join(engineNames[:], "|"))
}

// EngineNames lists the selectable engines in CLI spelling.
func EngineNames() []string { return slices.Clone(engineNames[:]) }

// SchedulerNames lists every adversarial scheduler of the sequential engine,
// sorted; each name is accepted by WithScheduler and by the -sched flags of
// cmd/anoncast and cmd/anonbench.
func SchedulerNames() []string { return sim.SchedulerNames() }

// ProtocolKind selects a specific protocol instead of the automatic choice.
type ProtocolKind int

// Protocols.
const (
	// ProtoAuto picks the cheapest correct protocol for the graph class.
	ProtoAuto ProtocolKind = iota
	// ProtoTreePow2 is the grounded-tree broadcast with power-of-2 flow.
	ProtoTreePow2
	// ProtoTreeNaive is the grounded-tree broadcast with the naive x/d flow.
	ProtoTreeNaive
	// ProtoDAG is the scalar-commodity DAG broadcast.
	ProtoDAG
	// ProtoGeneral is the interval-union general-graph broadcast.
	ProtoGeneral
)

// protocolNames holds each protocol's CLI name, indexed by ProtocolKind.
var protocolNames = [...]string{"auto", "tree", "tree-naive", "dag", "general"}

// String returns the protocol's CLI name.
func (k ProtocolKind) String() string {
	if k >= 0 && int(k) < len(protocolNames) {
		return protocolNames[k]
	}
	return fmt.Sprintf("protocol(%d)", int(k))
}

// ProtocolNames lists the selectable protocols in CLI spelling; each name is
// accepted by ProtocolByName, the -proto flags of cmd/anoncast, and the
// "protocol" field of the run-server request (internal/serve).
func ProtocolNames() []string { return slices.Clone(protocolNames[:]) }

// ProtocolByName parses a CLI protocol name (auto|tree|tree-naive|dag|general).
// The empty string selects the automatic choice.
func ProtocolByName(name string) (ProtocolKind, error) {
	if name == "" {
		return ProtoAuto, nil
	}
	if i := slices.Index(protocolNames[:], name); i >= 0 {
		return ProtocolKind(i), nil
	}
	return 0, fmt.Errorf("anonnet: unknown protocol %q (have %s)", name, strings.Join(protocolNames[:], "|"))
}

// Option configures a protocol run. Every option sets a Request field,
// except WithRecordTrace, WithReplayTrace and WithScheduleFuzz: they carry
// in-process concerns the wire format cannot.
type Option func(*runConfig)

// runConfig is the one configuration of a run: the Request plus the four
// in-process fields of the record, replay and fuzz options.
type runConfig struct {
	Request
	record   **TraceData
	replayTr *TraceData
	fuzzN    int
	fuzzDst  **FuzzReport
}

// WithEngine selects the execution engine.
func WithEngine(e Engine) Option { return func(c *runConfig) { c.Engine = e.String() } }

// WithShards sets EngineSharded's shard count (default DefaultShards) and,
// for EngineTCP, the partition that groups vertices into socket workers
// when n >= 2 (the TCP default is one worker per vertex). The other engines
// ignore it.
// Different shard counts are different (all valid) schedules: verdicts and
// every schedule-independent quantity agree, exact metrics may differ.
func WithShards(n int) Option { return func(c *runConfig) { c.Shards = n } }

// WithScheduler selects the sequential engine's adversarial scheduler by
// name (default fifo); SchedulerNames lists the valid names.
func WithScheduler(name string) Option { return func(c *runConfig) { c.Scheduler = name } }

// WithSeed seeds the randomized schedulers (random, latency, ...).
func WithSeed(seed int64) Option { return func(c *runConfig) { c.Seed = seed } }

// WithMaxSteps bounds the number of delivery steps (0 = default).
func WithMaxSteps(n int) Option { return func(c *runConfig) { c.MaxSteps = n } }

// WithProtocol forces a specific broadcast protocol.
func WithProtocol(k ProtocolKind) Option { return func(c *runConfig) { c.Protocol = k.String() } }

// WithAlphabetTracking enables Report.AlphabetSize.
func WithAlphabetTracking() Option { return func(c *runConfig) { c.Alphabet = true } }

// WithRecordTrace pins the run's schedule: after a successful run, *dst
// holds a self-contained trace — graph, protocol, scheduler, seed and the
// full send/deliver stream — that WithReplayTrace re-executes
// byte-identically. The deterministic engines (sequential, synchronous)
// record their event stream directly. The wild engines (concurrent, TCP)
// capture their nondeterministic schedule through a serializing observer
// and canonicalize it with one sequential replay, so even a one-off
// Go-runtime or kernel-socket schedule becomes a strict-mode replayable
// trace (its Scheduler() reads "wild-concurrent" or "wild-tcp").
func WithRecordTrace(dst **TraceData) Option { return func(c *runConfig) { c.record = dst } }

// WithScheduleFuzz turns the run into a differential fuzz campaign: the
// executed schedule is recorded (on any engine — wild schedules are
// captured and canonicalized first), mutated into `mutations` nearby valid
// schedules, and every mutant is re-run on the sequential engine demanding
// the paper's schedule-independent outcome stays invariant. *dst receives
// the report; any violation comes with a delta-debugged 1-minimal repro
// trace. See internal/replay/fuzz for the mutation operators.
func WithScheduleFuzz(mutations int, dst **FuzzReport) Option {
	return func(c *runConfig) { c.fuzzN = mutations; c.fuzzDst = dst }
}

// WithReplayTrace re-executes a recorded schedule exactly on the sequential
// engine, replacing any scheduler selection. The run errors loudly if the
// network, the protocol, or the engine's behavior no longer matches the
// recording.
func WithReplayTrace(t *TraceData) Option { return func(c *runConfig) { c.replayTr = t } }

// WithScenario builds the run's network from a scenario registry spec
// instead of an explicit Network: "family[:param=value,...]" with the
// reserved key seed, e.g. "smallworld:n=32,p=25,seed=7". ScenarioFamilies
// lists the families; every graph is a pure function of (family, params,
// seed). Pass a nil Network to Broadcast / AssignLabels / ExtractTopology
// when this option is set — a non-nil Network alongside it is an error.
// A fault spec may ride along after '@' ("torus:w=4@loss=10,seed=3"),
// equivalent to WithFaults.
func WithScenario(spec string) Option { return func(c *runConfig) { c.Scenario = spec } }

// WithObservability enables run telemetry: Report.Timeline carries a
// deterministic logical-clock timeline (sampled every sampleEvery deliveries;
// <= 0 means the default stride) plus the run's wall-clock phase timings.
// The deterministic plane is a pure function of (graph, protocol, scheduler,
// seed, shards) on the deterministic engines — the sequential engine and the
// sharded engine at one shard emit byte-identical timeline JSON — while the
// wild engines (concurrent, TCP) report one linearization of their
// nondeterministic schedule. When this option is absent the engines' telemetry
// hooks are no-ops and the steady-state delivery path allocates nothing.
func WithObservability(sampleEvery int) Option {
	return func(c *runConfig) { c.Timeline, c.TimelineEvery = true, sampleEvery }
}

// WithFaults injects a deterministic fault plan, compiled against the run's
// network: "drop=EDGE:K,loss=PCT,crash=VERTEX:K,seed=N" (terms optional and
// repeatable; see internal/scenario.ParseFaults). Dropped messages are
// metered but never delivered; crashed vertices consume deliveries without
// processing them. Report.Dropped counts the plan's effect. The fate of the
// k-th message on an edge is fixed by the plan alone, so fault runs compose
// with trace record/replay and the schedule fuzzer.
func WithFaults(spec string) Option { return func(c *runConfig) { c.Faults = spec } }

// WithChaos arms the TCP engine's deterministic socket-chaos mode:
// "disconnect=N,loss=PCT,delay=MS,seed=S" (see internal/netrun.ParseChaos)
// injects seeded per-connection forced disconnects, socket-layer frame loss
// and latency jitter. Chaos perturbs the wire, never the protocol: every
// teardown is healed by reconnect with bounded exponential backoff and
// resend of unacknowledged frames, so verdicts and visited sets match the
// chaos-free run. Only EngineTCP accepts it; every other engine rejects the
// option (there is no socket to disturb).
func WithChaos(spec string) Option { return func(c *runConfig) { c.Chaos = spec } }

// ScenarioFamilies lists the scenario registry's family names, sorted.
func ScenarioFamilies() []string { return scenario.Names() }

// ScenarioNetwork builds a generated Network from a scenario spec
// ("family[:param=value,...]", e.g. "ring:n=12" or "randnet:n=20,seed=3"),
// the one way to name one: WithScenario, the run server and the CLIs'
// -graph flags take the same syntax and build the same network.
func ScenarioNetwork(spec string) (*Network, error) {
	g, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// splitScenarioSpec separates "family:params@faultspec" into its graph and
// fault halves.
func splitScenarioSpec(spec string) (graphSpec, faultSpec string) {
	graphSpec, faultSpec, _ = strings.Cut(spec, "@")
	return graphSpec, faultSpec
}

// resolveNetwork picks the run's network: the explicit one, the request's
// embedded network text, or the scenario network, rejecting ambiguous
// calls that give a scenario alongside one of the others.
func (c *runConfig) resolveNetwork(n *Network) (*Network, error) {
	if c.Network != "" {
		var err error
		if n, err = ParseNetwork(strings.NewReader(c.Network)); err != nil {
			return nil, err
		}
	}
	graphSpec, _ := splitScenarioSpec(c.Scenario)
	switch {
	case graphSpec == "" && n == nil:
		return nil, fmt.Errorf("anonnet: nil network (pass one, or select a generated family via WithScenario)")
	case graphSpec == "":
		return n, nil
	case n != nil:
		return nil, fmt.Errorf("anonnet: WithScenario(%q) conflicts with an explicitly passed network", c.Scenario)
	}
	return ScenarioNetwork(graphSpec)
}

// faultOptions compiles the configured fault spec (WithFaults, or the
// '@'-suffix of WithScenario) against the resolved graph. The second return
// is the plan's canonical spec — the form recorded traces carry in their
// header — or "" when no plan is configured.
func (c *runConfig) faultOptions(g *graph.G) (*sim.Faults, string, error) {
	_, fromScenario := splitScenarioSpec(c.Scenario)
	spec := c.Faults
	if fromScenario != "" {
		if spec != "" {
			return nil, "", fmt.Errorf("anonnet: fault plans given both via WithFaults(%q) and WithScenario(%q)", c.Faults, c.Scenario)
		}
		spec = fromScenario
	}
	if spec == "" {
		return nil, "", nil
	}
	plan, err := scenario.ParseFaults(spec)
	if err != nil {
		return nil, "", err
	}
	f, err := plan.Compile(g)
	if err != nil {
		return nil, "", err
	}
	return f, plan.Canonical(), nil
}

// TraceData is a recorded delivery schedule with its provenance header (see
// internal/replay for the format). It is self-contained: the network it was
// recorded on travels inside it.
type TraceData struct {
	tr *replay.Trace
}

// Encode renders the trace in the versioned binary format.
func (t *TraceData) Encode() []byte { return replay.Encode(t.tr) }

// DecodeTrace parses a trace previously rendered by Encode. Corrupt or
// truncated input errors, never panics.
func DecodeTrace(data []byte) (*TraceData, error) {
	tr, err := replay.Decode(data)
	if err != nil {
		return nil, err
	}
	return &TraceData{tr: tr}, nil
}

// Network reconstructs the network the trace was recorded on.
func (t *TraceData) Network() (*Network, error) {
	g, err := t.tr.Graph()
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// Protocol returns the recorded protocol's name.
func (t *TraceData) Protocol() string { return t.tr.Protocol }

// Scheduler returns the name of the adversary that produced the schedule.
func (t *TraceData) Scheduler() string { return t.tr.Scheduler }

// Seed returns the recorded scheduler seed.
func (t *TraceData) Seed() int64 { return t.tr.Seed }

// Events returns the number of recorded send/deliver events.
func (t *TraceData) Events() int { return len(t.tr.Events) }

// String summarizes the trace.
func (t *TraceData) String() string {
	return fmt.Sprintf("trace{proto=%s sched=%s seed=%d events=%d}",
		t.tr.Protocol, t.tr.Scheduler, t.tr.Seed, len(t.tr.Events))
}

// FuzzReport summarizes a WithScheduleFuzz campaign over the run's recorded
// schedule.
type FuzzReport struct {
	// Mutants is the number of mutated schedules executed.
	Mutants int
	// SkippedDeliveries counts mutated schedule entries that were not
	// executable when their turn came (skipped leniently).
	SkippedDeliveries int
	// CompletedDeliveries counts deliveries the fallback adversary appended
	// after a mutated schedule ran out.
	CompletedDeliveries int
	// Violations is the number of mutants whose schedule-independent
	// outcome diverged from the recorded run's. Any nonzero value is an
	// invariance bug in an engine or protocol.
	Violations int
	// MinimalRepro is the delta-debugged 1-minimal repro trace of the first
	// violation (nil when Violations == 0 or shrinking failed).
	MinimalRepro *TraceData
}

// String summarizes the report.
func (f *FuzzReport) String() string {
	return fmt.Sprintf("fuzz{mutants=%d skipped=%d completed=%d violations=%d}",
		f.Mutants, f.SkippedDeliveries, f.CompletedDeliveries, f.Violations)
}

// Report summarizes a protocol run with the paper's quality measures.
type Report struct {
	// Protocol is the name of the protocol that ran.
	Protocol string
	// Terminated reports whether the terminal's stopping predicate held.
	// When false the run went quiescent: some vertex cannot reach t.
	Terminated bool
	// AllReceived reports whether every vertex received the broadcast.
	AllReceived bool
	// Messages is the total number of messages sent, counting sends the
	// fault plan dropped and messages still queued when the run ended.
	Messages int
	// TotalBits is the total communication complexity in bits, over the
	// same sends.
	TotalBits int64
	// BandwidthBits is the maximal number of bits carried by a single edge.
	BandwidthBits int64
	// MaxMessageBits is the largest single message in bits.
	MaxMessageBits int
	// AlphabetSize is |Sigma_G|, when tracking was requested.
	AlphabetSize int
	// Steps is the number of delivery steps executed.
	Steps int
	// Rounds is the synchronous time complexity (EngineSynchronous only).
	Rounds int
	// PeakInFlight is the maximum number of messages simultaneously in
	// flight. The concurrent and TCP engines report their quiescence
	// counter's high-water mark; the sharded engine samples at superstep
	// barriers.
	PeakInFlight int
	// MaxStateBits is the largest per-vertex memory footprint observed.
	MaxStateBits int
	// Dropped counts messages discarded by the run's fault plan (WithFaults
	// or WithScenario's '@'-suffix): dropped sends plus deliveries consumed
	// by crashed vertices. Always 0 on a fault-free run.
	Dropped int
	// Churn lists the fault plan's fired dynamic-network events — vertex
	// crashes and recoveries, edge cuts and joins, loss-schedule steps —
	// each with its re-stabilization cost. Empty unless the plan carries
	// churn terms.
	Churn []ChurnEvent
	// Timeline is the run's telemetry (nil unless WithObservability was
	// given): the deterministic logical-clock timeline plus wall-clock phase
	// timings.
	Timeline *Timeline
}

// ChurnEvent is one fired dynamic-network event of a run's fault plan: its
// kind ("crash", "recover", "cut", "join" or "loss"), the affected vertex or
// edge (-1 when not applicable), the plan trigger index, the global delivery
// clock when it became observable, and its deliveries-to-quiescence.
type ChurnEvent = obs.ChurnRow

// Timeline is the telemetry of one observed run (WithObservability). It has
// two strictly separated planes: the deterministic timeline — logical-clock
// samples, per-shard counter totals and superstep occupancy, a pure function
// of (graph, protocol, scheduler, seed, shards) on the deterministic engines
// — and wall-clock phase timings, which legitimately vary between runs.
type Timeline struct {
	report *obs.Report
}

// JSON renders both planes (timeline + phases) as indented JSON.
func (t *Timeline) JSON() ([]byte, error) { return t.report.JSON() }

// TimelineJSON renders only the deterministic plane — the byte layout the
// determinism contract is stated over: equal (graph, protocol, scheduler,
// seed, shards) tuples yield byte-identical output on the deterministic
// engines.
func (t *Timeline) TimelineJSON() ([]byte, error) { return t.report.Timeline.JSON() }

// Table renders the telemetry as human-readable text tables.
func (t *Timeline) Table() string { return t.report.Table() }

// Prometheus renders the telemetry in the Prometheus text exposition format.
func (t *Timeline) Prometheus() string { return t.report.Prometheus() }

func (c *runConfig) simOptions() (sim.Options, error) {
	opts := sim.Options{
		Seed:          c.Seed,
		MaxSteps:      c.MaxSteps,
		TrackAlphabet: c.Alphabet,
	}
	if c.Scheduler != "" {
		sched, err := sim.NewScheduler(c.Scheduler)
		if err != nil {
			return opts, err
		}
		opts.Scheduler = sched
	}
	return opts, nil
}

// engineImpl resolves the selected engine to its implementation. Every tier
// — the three in-memory engines and TCP — is reached through the same
// sim.Engine interface.
func (c *runConfig) engineImpl() (Engine, sim.Engine, error) {
	kind := EngineSequential
	if c.Engine != "" {
		var err error
		if kind, err = EngineByName(c.Engine); err != nil {
			return 0, nil, err
		}
	}
	if c.Chaos != "" && kind != EngineTCP {
		return 0, nil, fmt.Errorf("anonnet: WithChaos(%q) requires the tcp engine, have %s (no socket to disturb)", c.Chaos, kind)
	}
	switch kind {
	case EngineSequential:
		return kind, sim.Sequential(), nil
	case EngineConcurrent:
		return kind, sim.Concurrent(), nil
	case EngineSynchronous:
		return kind, sim.Synchronous(), nil
	case EngineTCP:
		chaos, err := netrun.ParseChaos(c.Chaos)
		if err != nil {
			return 0, nil, err
		}
		return kind, netrun.Engine(core.Codec{}, netrun.Options{Shards: c.Shards, Chaos: chaos}), nil
	default: // EngineSharded
		n := c.Shards
		if n == 0 {
			n = DefaultShards
		}
		return kind, shard.Engine(n), nil
	}
}

// protocolFactory returns the constructor of the op's protocol; every run
// of the campaign (the run itself, a wild capture's replay, fuzz mutants)
// gets a fresh instance.
func (c *runConfig) protocolFactory(n *Network) (func() protocol.Protocol, error) {
	switch c.Op {
	case "", "broadcast":
		kind, err := ProtocolByName(c.Protocol)
		if err != nil {
			return nil, err
		}
		if kind == ProtoAuto {
			switch n.Class() {
			case ClassGroundedTree:
				kind = ProtoTreePow2
			case ClassDAG:
				kind = ProtoDAG
			default:
				kind = ProtoGeneral
			}
		}
		m := []byte(c.Message)
		return func() protocol.Protocol {
			switch kind {
			case ProtoTreePow2:
				return core.NewTreeBroadcast(m, core.RulePow2)
			case ProtoTreeNaive:
				return core.NewTreeBroadcast(m, core.RuleNaive)
			case ProtoDAG:
				return core.NewDAGBroadcast(m)
			default:
				return core.NewGeneralBroadcast(m)
			}
		}, nil
	case "labels":
		return func() protocol.Protocol { return core.NewLabelAssign(nil) }, nil
	case "topology":
		return func() protocol.Protocol { return core.NewMapExtract(nil) }, nil
	default:
		return nil, fmt.Errorf("anonnet: unknown op %q (have %s)", c.Op, strings.Join(Ops(), "|"))
	}
}

// execute runs p on g under the configured engine, recording, replaying or
// fuzzing the schedule as configured; newProto builds the further instances
// a wild capture or a fuzz campaign needs.
func (c *runConfig) execute(g *graph.G, p protocol.Protocol, newProto func() protocol.Protocol) (*sim.Result, *obs.Recorder, error) {
	kind, eng, err := c.engineImpl()
	if err != nil {
		return nil, nil, err
	}
	opts, err := c.simOptions()
	if err != nil {
		return nil, nil, err
	}
	var faultSpec string
	opts.Faults, faultSpec, err = c.faultOptions(g)
	if err != nil {
		return nil, nil, err
	}
	var rec *obs.Recorder
	if c.Timeline {
		rec = obs.NewRecorder(c.TimelineEvery)
		opts.Obs = rec
	}
	// Both recording and fuzzing need the run's schedule pinned to a trace.
	wantTrace := c.record != nil || c.fuzzDst != nil
	var recorded *replay.Trace
	var r *sim.Result

	switch {
	case c.replayTr != nil:
		if kind != EngineSequential {
			return nil, nil, fmt.Errorf("anonnet: WithReplayTrace requires the sequential engine, have %s", kind)
		}
		src := c.replayTr.tr
		var trRec *replay.Recorder
		if wantTrace {
			trRec = replay.NewRecorder()
			opts.Observer = trRec
		}
		r, err = replay.Run(g, p, src, opts)
		if trRec != nil && err == nil {
			recorded = trRec.Trace(g, src.Protocol, src.Scheduler, src.Seed)
			recorded.Truncated = src.Truncated
			// The re-recording ran under the trace's plan (or the caller's,
			// when the trace carries none — replay.Run rejects both at once).
			recorded.Faults = src.Faults
			if recorded.Faults == "" {
				recorded.Faults = faultSpec
			}
		}
	case wantTrace && (kind == EngineConcurrent || kind == EngineTCP || kind == EngineSharded):
		// Wild-capture engines: their schedule is not a sequential
		// scheduler's output (nondeterministic for concurrent/tcp; a
		// deterministic parallel composition for shard), so it is captured
		// through the engines' serialized observer and canonicalized into a
		// strict-mode trace with one sequential replay.
		r, recorded, err = replay.RecordWild(eng, g, newProto, opts, faultSpec)
	default:
		var trRec *replay.Recorder
		if wantTrace {
			trRec = replay.NewRecorder()
			opts.Observer = trRec
		}
		r, err = eng.Run(g, p, opts)
		if trRec != nil && err == nil {
			schedName := "sync"
			if kind == EngineSequential {
				schedName = "fifo"
				if opts.Scheduler != nil {
					schedName = opts.Scheduler.Name()
				}
			}
			recorded = trRec.Trace(g, p.Name(), schedName, c.Seed)
			recorded.Faults = faultSpec
		}
	}
	if err != nil {
		return r, rec, err
	}
	if c.record != nil && recorded != nil {
		*c.record = &TraceData{tr: recorded}
	}
	if c.fuzzDst != nil && recorded != nil {
		fr, err := c.fuzzSchedule(g, newProto, recorded, r)
		if err != nil {
			return r, rec, err
		}
		*c.fuzzDst = fr
	}
	return r, rec, nil
}

// fuzzSchedule runs the WithScheduleFuzz campaign over the recorded trace.
// The run's own result serves as the invariance reference, so the seed
// schedule is not re-executed a second time.
func (c *runConfig) fuzzSchedule(g *graph.G, newProto func() protocol.Protocol, tr *replay.Trace, ref *sim.Result) (*FuzzReport, error) {
	rep, err := fuzz.CampaignOn(g, newProto, []*replay.Trace{tr}, fuzz.Options{
		Mutations: c.fuzzN,
		Seed:      c.Seed,
		Reference: ref,
	})
	if err != nil {
		return nil, err
	}
	out := &FuzzReport{
		Mutants:             rep.Mutants,
		SkippedDeliveries:   rep.SkippedDeliveries,
		CompletedDeliveries: rep.CompletedDeliveries,
		Violations:          len(rep.Violations),
	}
	if len(rep.Violations) > 0 {
		if v := rep.Violations[0]; v.Shrunk != nil {
			out.MinimalRepro = &TraceData{tr: v.Shrunk.Trace}
		}
	}
	return out, nil
}

func report(proto string, r *sim.Result, rec *obs.Recorder) *Report {
	var churn []ChurnEvent
	if r.Churn != nil {
		churn = make([]ChurnEvent, len(r.Churn.Events))
		for i, ev := range r.Churn.Events {
			churn[i] = ChurnEvent{
				Kind: ev.Kind, Vertex: ev.Vertex, Edge: ev.Edge, At: ev.At,
				Clock: ev.Clock, Restabilize: r.Churn.Restabilize(i),
			}
		}
		// The churn rows enter the telemetry before the timeline is built, so
		// the deterministic plane carries them (schema v2).
		rec.RecordChurn(churn)
	}
	var tl *Timeline
	if rec != nil {
		tl = &Timeline{report: rec.Report()}
	}
	return &Report{
		Timeline:       tl,
		Churn:          churn,
		Protocol:       proto,
		Terminated:     r.Verdict == sim.Terminated,
		AllReceived:    r.AllVisited(),
		Messages:       r.Metrics.Messages,
		TotalBits:      r.Metrics.TotalBits,
		BandwidthBits:  r.Metrics.MaxEdgeBits(),
		MaxMessageBits: r.Metrics.MaxMsgBits,
		AlphabetSize:   r.Metrics.AlphabetSize(),
		Steps:          r.Steps,
		Rounds:         r.Rounds,
		PeakInFlight:   r.Metrics.PeakInFlight,
		MaxStateBits:   r.MaxStateBits(),
		Dropped:        r.Dropped,
	}
}

// Broadcast delivers m from the root to every vertex of n. It returns a
// report of the run; if not every vertex can reach the terminal the protocol
// (correctly) never terminates and ErrNotTerminated is returned alongside
// the report of the quiesced run.
func Broadcast(n *Network, m []byte, opts ...Option) (*Report, error) {
	res, err := run(n, Request{Message: string(m)}, opts)
	if res == nil {
		return nil, err
	}
	return res.Report, err
}

// Label is a vertex identity assigned by AssignLabels: a half-open
// sub-interval [Lo, Hi) of [0, 1) with dyadic end points, unique across the
// network. Its encoded length is Theta(|V| log dout) in the worst case,
// which the paper proves optimal for directed anonymous networks.
type Label struct {
	// Lo and Hi are binary positional renderings of the end points,
	// e.g. "0.101".
	Lo, Hi string
	// Bits is the exact encoded length of the label.
	Bits int

	union interval.Union
}

// String renders the label as [lo, hi).
func (l Label) String() string { return fmt.Sprintf("[%s, %s)", l.Lo, l.Hi) }

// Equal reports whether two labels denote the same interval.
func (l Label) Equal(o Label) bool { return l.union.Equal(o.union) }

// AssignLabels runs the Section 5 protocol and returns the unique label of
// every internal vertex (the root and terminal are the distinguished pair
// and receive none).
func AssignLabels(n *Network, opts ...Option) (map[VertexID]Label, *Report, error) {
	res, err := run(n, Request{Op: "labels"}, opts)
	if res == nil {
		return nil, nil, err
	}
	return res.Labels, res.Report, err
}

// labelsOf collects the label of every labeled vertex of a terminated
// label-assignment run.
func labelsOf(r *sim.Result) map[VertexID]Label {
	labels := make(map[VertexID]Label)
	for v, node := range r.Nodes {
		ln, ok := node.(core.Labeled)
		if !ok {
			continue
		}
		u, has := ln.Label()
		if !has {
			continue
		}
		iv := u.Intervals()[0]
		labels[VertexID(v)] = Label{
			Lo:    iv.Lo.String(),
			Hi:    iv.Hi.String(),
			Bits:  iv.EncodedBits(),
			union: u,
		}
	}
	return labels
}

// TopologyEdge is one edge of an extracted topology, with both port numbers.
type TopologyEdge struct {
	From, To        string
	OutPort, InPort int
	FromOutDegree   int
}

// Topology is the network map reconstructed at the terminal: every vertex
// (the root "s", the terminal "t", and each internal vertex named by its
// label) and every port-numbered edge.
type Topology struct {
	Vertices []string
	Edges    []TopologyEdge

	inner *core.Topology
}

// IsomorphicTo reports whether the extracted topology is isomorphic to n as
// an anonymous network (root-, terminal- and port-preserving), using
// canonical forms — no privileged vertex identities are consulted.
func (t *Topology) IsomorphicTo(n *Network) (bool, error) {
	g, err := t.inner.ToGraph()
	if err != nil {
		return false, err
	}
	return graph.Isomorphic(n.graphHandle(), g), nil
}

// ExtractTopology runs the mapping protocol and returns the reconstructed
// topology.
func ExtractTopology(n *Network, opts ...Option) (*Topology, *Report, error) {
	res, err := run(n, Request{Op: "topology"}, opts)
	if res == nil {
		return nil, nil, err
	}
	return res.Topology, res.Report, err
}

// topologyOf converts the terminal output of a terminated mapping run.
func topologyOf(r *sim.Result) (*Topology, error) {
	topo, ok := r.Output.(*core.Topology)
	if !ok {
		return nil, fmt.Errorf("anonnet: unexpected mapping output %T", r.Output)
	}
	out := &Topology{inner: topo}
	for _, v := range topo.Vertices {
		out.Vertices = append(out.Vertices, v.Key())
	}
	for _, e := range topo.Edges {
		out.Edges = append(out.Edges, TopologyEdge{
			From:          e.From.Key(),
			To:            e.To.Key(),
			OutPort:       e.OutPort,
			InPort:        e.InPort,
			FromOutDegree: e.FromOutDeg,
		})
	}
	return out, nil
}

// Request is the declarative form of one run — the full purity tuple as
// plain data, and the facade's one configuration type: every option except
// WithRecordTrace, WithReplayTrace and WithScheduleFuzz sets one of its
// fields, and those three carry the only in-process concerns (a trace sink,
// a trace to replay, a fuzz budget and report sink) a run adds to it. It is
// the entry point the run server (internal/serve, cmd/anonserved) and the
// CLIs share: every field is serializable, and on the deterministic engines
// (seq, sync, shard) the outcome is a pure function of the request, which
// is what makes server-side verdict caching sound. Zero values select the
// defaults (sequential engine, automatic protocol, fifo scheduler).
type Request struct {
	// Op selects the protocol family: "broadcast" (default), "labels"
	// (Section 5 label assignment), or "topology" (map extraction).
	Op string `json:"op,omitempty"`
	// Scenario builds the network from the scenario registry
	// ("family[:param=value,...]", WithScenario syntax, without the
	// '@'-fault suffix — faults travel in Faults). Exactly one of Scenario
	// and Network must be set.
	Scenario string `json:"scenario,omitempty"`
	// Network is the network in the v1 text format (Network.MarshalText).
	Network string `json:"network,omitempty"`
	// Message is the broadcast payload (broadcast op only).
	Message string `json:"message,omitempty"`
	// Protocol forces a protocol by CLI name (ProtocolNames; ""/auto =
	// automatic choice). Broadcast op only.
	Protocol string `json:"protocol,omitempty"`
	// Engine selects the execution engine by CLI name (EngineNames; "" =
	// seq).
	Engine string `json:"engine,omitempty"`
	// Scheduler selects the adversarial scheduler by name (SchedulerNames;
	// "" = fifo). Seq and shard engines only; the others ignore it.
	Scheduler string `json:"scheduler,omitempty"`
	// Seed seeds the randomized schedulers.
	Seed int64 `json:"seed,omitempty"`
	// Shards is the shard engine's shard count (0 = DefaultShards) and the
	// tcp engine's worker partition (0 or 1 = one worker per vertex).
	Shards int `json:"shards,omitempty"`
	// MaxSteps bounds the number of delivery steps (0 = default limit).
	MaxSteps int `json:"max_steps,omitempty"`
	// Faults is a deterministic fault/churn plan in WithFaults syntax
	// ("drop=EDGE:K,loss=PCT,crash=VERTEX:K,recover=VERTEX:K,cut=EDGE:K,
	// join=EDGE:K,lossat=SEND:PCT,seed=N"; "" = fault-free).
	Faults string `json:"faults,omitempty"`
	// Chaos is a socket-chaos spec in WithChaos syntax
	// ("disconnect=N,loss=PCT,delay=MS,seed=S"). TCP engine only; the run
	// server rejects any request that sets it (wild networking is not
	// servable).
	Chaos string `json:"chaos,omitempty"`
	// Alphabet enables Report.AlphabetSize tracking.
	Alphabet bool `json:"alphabet,omitempty"`
	// Timeline attaches run telemetry: Report.Timeline carries the
	// deterministic timeline plane, sampled every TimelineEvery deliveries
	// (<= 0 = default stride).
	Timeline      bool `json:"timeline,omitempty"`
	TimelineEvery int  `json:"timeline_every,omitempty"`
}

// RunResult is Do's outcome: the Report of the run plus the op-specific
// output (labels for "labels", the extracted topology for "topology").
type RunResult struct {
	Report   *Report
	Labels   map[VertexID]Label
	Topology *Topology
}

// Do executes a declarative Request: the request-struct counterpart of
// Broadcast / AssignLabels / ExtractTopology, shared by the run server and
// the CLIs. Extra options apply on top of the request's fields, so they
// override them and add the in-process concerns the wire format does not
// carry (trace recording, replay, schedule fuzzing). Like Broadcast, Do
// returns the report alongside ErrNotTerminated when the run correctly went
// quiescent — servable, cacheable outcomes, not failures.
func Do(req Request, extra ...Option) (*RunResult, error) { return run(nil, req, extra) }

// run is the facade's one execution path: it applies opts on top of req,
// resolves the network, builds the op's protocol, executes and reports.
func run(n *Network, req Request, opts []Option) (*RunResult, error) {
	c := runConfig{Request: req}
	for _, o := range opts {
		o(&c)
	}
	n, err := c.resolveNetwork(n)
	if err != nil {
		return nil, err
	}
	newProto, err := c.protocolFactory(n)
	if err != nil {
		return nil, err
	}
	p := newProto()
	r, rec, err := c.execute(n.graphHandle(), p, newProto)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Report: report(p.Name(), r, rec)}
	if !res.Report.Terminated {
		return res, ErrNotTerminated
	}
	switch c.Op {
	case "labels":
		res.Labels = labelsOf(r)
	case "topology":
		res.Topology, err = topologyOf(r)
	}
	return res, err
}

// Ops lists the valid Request.Op values.
func Ops() []string { return []string{"broadcast", "labels", "topology"} }

// CheckFaults validates a WithFaults spec against this network without
// running anything: parse errors, out-of-range rates, and plans naming
// edges or vertices the network does not have are reported here exactly as
// a run would reject them. The run server uses it to turn bad fault plans
// into 400s instead of failed executions.
func (n *Network) CheckFaults(spec string) error {
	plan, err := scenario.ParseFaults(spec)
	if err != nil {
		return err
	}
	_, err = plan.Compile(n.g)
	return err
}

// Fingerprint returns the network's isomorphism-invariant fingerprint
// (graph.Fingerprint): equal for isomorphic networks, value-pinned across
// releases. The run server records it as cache provenance; cache identity
// itself additionally hashes the exact serialized form, since metrics are
// functions of the concrete port numbering, not only the isomorphism class.
func (n *Network) Fingerprint() uint64 { return n.g.Fingerprint() }
