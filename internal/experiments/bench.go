package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// BenchReport is the machine-readable performance trajectory of one
// `anonbench -bench` run: the delivery-hot-path microbenchmark plus the
// wall-clock of every experiment tier. It is serialized as BENCH.json, CI
// regenerates it on every build, and BENCH_baseline.json (committed at the
// repository root) anchors the regression gate. The field list is documented
// in docs/BENCHMARKS.md and drift-guarded by docdrift_test.go — adding a
// field without documenting it fails the build.
//
// The report deliberately carries no timestamps or hostnames: two runs on
// the same machine and commit should produce byte-stable JSON apart from
// the measured numbers.
type BenchReport struct {
	// SchemaVersion identifies this struct's layout; bump on incompatible
	// field changes so downstream tooling can refuse mixed comparisons.
	SchemaVersion int `json:"schema_version"`
	// GoVersion is runtime.Version() of the producing toolchain.
	GoVersion string `json:"go_version"`
	// Gomaxprocs is the scheduler width the run had available.
	Gomaxprocs int `json:"gomaxprocs"`
	// Quick records whether the reduced sweeps produced the tier timings.
	Quick bool `json:"quick"`
	// Broadcast is the sequential-engine delivery microbenchmark.
	Broadcast BroadcastBench `json:"broadcast"`
	// ShardBroadcast is the multi-core single-run benchmark: the same
	// broadcast on the sharded engine at 1 shard and at ShardBench.Shards
	// shards, with the wall-clock speedup between them.
	ShardBroadcast ShardBench `json:"shard_broadcast"`
	// ShardScalefree is the same 1-vs-N-shard measurement on a scale-free
	// scenario graph — the hub-dominated family whose cut structure actually
	// exercises ghost routing and work stealing (the grounded tree of
	// ShardBroadcast barely does). Added in schema v5.
	ShardScalefree ShardBench `json:"shard_scalefree"`
	// ScenarioBroadcast times the general broadcast on every family of the
	// scenario registry (internal/scenario), one entry per family in name
	// order — the topology-sensitivity slice of the trajectory.
	ScenarioBroadcast []ScenarioBench `json:"scenario_broadcast"`
	// ChurnBroadcast is the dynamic-network tier: the general broadcast under
	// a seeded churn plan (crash-and-recover vertices plus an edge cut),
	// measuring the delivery rate with fault bookkeeping armed and the
	// re-stabilization cost of each fired event. Its outcome counters are
	// deterministic, so the CI gate checks them for equality against the
	// baseline — drift is a churn-semantics bug, not noise. Added in
	// schema v6.
	ChurnBroadcast ChurnBench `json:"churn_broadcast"`
	// ServerThroughput is the run-server tier: a concurrent client load
	// against an in-process anonserved instance, measuring end-to-end
	// request throughput and the verdict cache's deduplication. Nil when
	// the producing binary had no server bench wired in (the hook keeps
	// internal/experiments import-cycle-free of the facade).
	ServerThroughput *ServerBench `json:"server_throughput,omitempty"`
	// Tiers is the wall-clock of each experiment sweep, registry order.
	Tiers []TierBench `json:"tiers"`
	// TotalWallMS is the wall-clock of the whole benchmark run.
	TotalWallMS float64 `json:"total_wall_ms"`
}

// ServerBench measures the run server end to end: Clients concurrent
// clients each issue RequestsPerClient POSTs drawn round-robin from
// DistinctKeys distinct cache keys, so the expected hit+dedup rate is
// exactly 1 - DistinctKeys/Requests — the singleflight group guarantees
// Executions == DistinctKeys regardless of interleaving, which is what lets
// the CI gate check the cache absolutely rather than against a baseline.
type ServerBench struct {
	// Clients is the number of concurrent load-generating clients.
	Clients int `json:"clients"`
	// RequestsPerClient is each client's request count.
	RequestsPerClient int `json:"requests_per_client"`
	// DistinctKeys is the number of distinct cache keys in the workload.
	DistinctKeys int `json:"distinct_keys"`
	// Requests is the total request count (Clients * RequestsPerClient).
	Requests int `json:"requests"`
	// Workers is the server's execution concurrency.
	Workers int `json:"workers"`
	// RunsPerSec is end-to-end request throughput (requests / wall-clock).
	RunsPerSec float64 `json:"runs_per_sec"`
	// CacheHitRate is the fraction of requests answered without a fresh
	// execution (cache hits plus singleflight joins, over Requests).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Executions is the number of engine runs actually performed; equals
	// DistinctKeys on a correct server.
	Executions int64 `json:"executions"`
}

// ServerBenchFunc produces the server tier. It is injected by the caller
// (cmd/anonbench wires internal/serve's implementation) because experiments
// cannot import the facade: the facade's own test files import experiments.
type ServerBenchFunc func(quick bool) (*ServerBench, error)

// BroadcastBench measures the delivery hot path: a large sequential
// broadcast under the seeded random adversary with alphabet metering on —
// the exact configuration the interning and CSR work optimizes.
type BroadcastBench struct {
	// Vertices and Edges describe the benchmark graph.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Scheduler names the adversary driving delivery order.
	Scheduler string `json:"scheduler"`
	// Repeats is the number of timed runs averaged below.
	Repeats int `json:"repeats"`
	// Deliveries is the per-run delivery count (schedule-independent).
	Deliveries int `json:"deliveries"`
	// NsPerDelivery is wall-clock nanoseconds per delivered message — the
	// headline number the CI gate compares against the baseline.
	NsPerDelivery float64 `json:"ns_per_delivery"`
	// AllocsPerDelivery is heap allocations per delivered message,
	// including per-run setup amortized over the run. Steady-state delivery
	// itself allocates nothing (asserted in internal/sim's bench tests).
	AllocsPerDelivery float64 `json:"allocs_per_delivery"`
	// PeakInFlight is the run's maximum number of simultaneously in-flight
	// messages (the O(1) counter of sim.Metrics).
	PeakInFlight int `json:"peak_in_flight"`
}

// ShardBench measures the sharded engine on the broadcast workload: one run
// per configuration tells whether partitioned delivery actually buys
// wall-clock on this machine. Speedup is meaningful only when gomaxprocs >=
// shards; on starved machines it hovers near (or below) 1 and the CI gate
// compares it against the baseline rather than an absolute bar.
type ShardBench struct {
	// Vertices and Edges describe the benchmark graph (same instance as the
	// broadcast microbenchmark).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Scheduler names the per-shard adversary.
	Scheduler string `json:"scheduler"`
	// Shards is the shard count of the multi-shard configuration.
	Shards int `json:"shards"`
	// CutEdges is the partition's cross-shard edge count at Shards shards —
	// the partition-quality number behind the speedup.
	CutEdges int `json:"cut_edges"`
	// GhostVertices and GhostEdges describe the partition's ghost routing:
	// (sender shard, high-fan-in head) pairs whose cut edges are buffered
	// sender-side and reconciled in one bulk pass per superstep instead of
	// flowing through the per-edge merge.
	GhostVertices int `json:"ghost_vertices"`
	GhostEdges    int `json:"ghost_edges"`
	// EffectiveCutEdges is CutEdges minus the ghost-routed edges — the
	// cross-shard merge traffic that actually remains per superstep.
	EffectiveCutEdges int `json:"effective_cut_edges"`
	// Repeats is the number of timed runs averaged per configuration.
	Repeats int `json:"repeats"`
	// Deliveries is the per-run delivery count of the multi-shard
	// configuration (deterministic; differs from the 1-shard schedule's).
	Deliveries int `json:"deliveries"`
	// Steals and StolenEdges count the deterministic barrier-time work
	// donations in one run of the multi-shard configuration.
	Steals      int `json:"steals"`
	StolenEdges int `json:"stolen_edges"`
	// NsPerDeliveryOneShard and NsPerDeliverySharded are wall-clock
	// nanoseconds per delivered message at 1 and at Shards shards.
	NsPerDeliveryOneShard float64 `json:"ns_per_delivery_one_shard"`
	NsPerDeliverySharded  float64 `json:"ns_per_delivery_sharded"`
	// Speedup is the whole-run wall-clock ratio (1-shard time / sharded
	// time) — the headline multi-core number.
	Speedup float64 `json:"speedup"`
}

// ScenarioBench measures one scenario-registry family: the general
// broadcast protocol (the only one sound on every graph class the registry
// produces) on the sequential engine under the seeded random adversary.
// Families differ wildly in fan-out and cycle structure, so these rows chart
// how topology shape — not engine internals — moves the delivery rate.
type ScenarioBench struct {
	// Family is the registry name ("torus", "scalefree", ...).
	Family string `json:"family"`
	// Spec is the full replayable spec string the graph was built from,
	// parameters and seed included.
	Spec string `json:"spec"`
	// Vertices and Edges describe the generated graph.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Scheduler names the adversary driving delivery order.
	Scheduler string `json:"scheduler"`
	// Repeats is the number of timed runs averaged below.
	Repeats int `json:"repeats"`
	// Deliveries is the per-run delivery count (schedule-independent).
	Deliveries int `json:"deliveries"`
	// NsPerDelivery is wall-clock nanoseconds per delivered message.
	NsPerDelivery float64 `json:"ns_per_delivery"`
	// Faults is the churn plan armed for the run in canonical spec syntax, ""
	// when fault-free. Only anonbench's -graph -faults mode sets it; the
	// registry tier always runs clean.
	Faults string `json:"faults,omitempty"`
	// Dropped counts messages the plan discarded per run (0 when fault-free).
	Dropped int `json:"dropped,omitempty"`
}

// ChurnBench measures the broadcast under dynamic-network churn: the general
// broadcast on a seeded random digraph with a fault plan that crashes and
// recovers mid vertices and cuts one edge. Everything but the nanosecond
// numbers is deterministic in the (graph seed, plan) pair.
type ChurnBench struct {
	// Vertices and Edges describe the benchmark graph.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Scheduler names the adversary driving delivery order.
	Scheduler string `json:"scheduler"`
	// Faults is the churn plan in canonical scenario spec syntax.
	Faults string `json:"faults"`
	// Repeats is the number of timed runs averaged below.
	Repeats int `json:"repeats"`
	// Deliveries is the per-run delivery count (schedule-independent).
	Deliveries int `json:"deliveries"`
	// Dropped counts messages the plan discarded per run.
	Dropped int `json:"dropped"`
	// ChurnEvents is the number of dynamic-network events that fired.
	ChurnEvents int `json:"churn_events"`
	// MaxRestabilize is the largest per-event deliveries-to-quiescence: how
	// much work the run still performed after the most disruptive event.
	MaxRestabilize int64 `json:"max_restabilize"`
	// NsPerDelivery is wall-clock nanoseconds per delivered message with the
	// churn bookkeeping (fault state + delivery clock) on the hot path.
	NsPerDelivery float64 `json:"ns_per_delivery"`
}

// TierBench is the wall-clock of one experiment sweep.
type TierBench struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// benchSchemaVersion is the current BenchReport layout. v2 added
// shard_broadcast; v3 added scenario_broadcast; v4 added server_throughput;
// v5 added shard_scalefree and the ghost/steal counters on ShardBench;
// v6 added churn_broadcast.
const benchSchemaVersion = 6

// RunBench produces the benchmark report: the broadcast microbenchmark
// first, then every experiment tier, timed serially so tier wall-clocks are
// not distorted by each other's load. server is the injected run-server
// tier (nil skips it and leaves ServerThroughput unset).
func RunBench(quick bool, server ServerBenchFunc) (*BenchReport, error) {
	start := time.Now()
	rep := &BenchReport{
		SchemaVersion: benchSchemaVersion,
		GoVersion:     runtime.Version(),
		Gomaxprocs:    runtime.GOMAXPROCS(0),
		Quick:         quick,
	}

	vertices, repeats := 100_000, 3
	if quick {
		vertices, repeats = 20_000, 2
	}
	b, err := benchBroadcast(vertices, repeats)
	if err != nil {
		return nil, err
	}
	rep.Broadcast = *b

	sb, err := benchShardBroadcast(vertices, repeats)
	if err != nil {
		return nil, err
	}
	rep.ShardBroadcast = *sb

	ssb, err := benchShardScalefree(quick, repeats)
	if err != nil {
		return nil, err
	}
	rep.ShardScalefree = *ssb

	sc, err := benchScenarioBroadcast(quick, repeats)
	if err != nil {
		return nil, err
	}
	rep.ScenarioBroadcast = sc

	cb, err := benchChurnBroadcast(quick, repeats)
	if err != nil {
		return nil, err
	}
	rep.ChurnBroadcast = *cb

	if server != nil {
		sv, err := server(quick)
		if err != nil {
			return nil, fmt.Errorf("bench server tier: %w", err)
		}
		rep.ServerThroughput = sv
	}

	for _, s := range Sweeps(quick) {
		t0 := time.Now()
		if _, err := s.Run(); err != nil {
			return nil, fmt.Errorf("bench tier %s: %w", s.ID, err)
		}
		rep.Tiers = append(rep.Tiers, TierBench{ID: s.ID, WallMS: ms(time.Since(t0))})
	}
	rep.TotalWallMS = ms(time.Since(start))
	return rep, nil
}

// benchBroadcast times the sequential broadcast on a random grounded tree —
// the same family and parameters as internal/sim's BenchmarkPendingEdge100k
// (at full size it is the identical seeded instance), so the committed
// trajectory and the Go benchmarks measure the same workload.
func benchBroadcast(vertices, repeats int) (*BroadcastBench, error) {
	g := graph.RandomGroundedTree(vertices, 0.2, 1)
	proto := core.NewTreeBroadcast(nil, core.RulePow2)
	opts := sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 7, TrackAlphabet: true}

	run := func() (*sim.Result, error) {
		r, err := sim.Run(g, proto, opts)
		if err != nil {
			return nil, err
		}
		if r.Verdict != sim.Terminated {
			return nil, fmt.Errorf("bench broadcast did not terminate on %s", g)
		}
		return r, nil
	}

	// One warm-up run primes the chunk pool and the allocator.
	warm, err := run()
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	deliveries := 0
	for i := 0; i < repeats; i++ {
		r, err := run()
		if err != nil {
			return nil, err
		}
		deliveries += r.Steps
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)

	return &BroadcastBench{
		Vertices:          g.NumVertices(),
		Edges:             g.NumEdges(),
		Scheduler:         "random",
		Repeats:           repeats,
		Deliveries:        warm.Steps,
		NsPerDelivery:     float64(elapsed.Nanoseconds()) / float64(deliveries),
		AllocsPerDelivery: float64(after.Mallocs-before.Mallocs) / float64(deliveries),
		PeakInFlight:      warm.Metrics.PeakInFlight,
	}, nil
}

// CaptureObs re-runs the broadcast microbenchmark's workload once with run
// telemetry attached and returns the two-plane report — the TIMELINE.json
// artifact CI uploads alongside BENCH.json. The run is untimed (telemetry on
// the hot path is never mixed into the measured numbers) and uses the same
// seeded graph and adversary as the benchmark, so its deterministic plane is
// byte-stable across builds on the same commit.
func CaptureObs(quick bool, sampleEvery int) (*obs.Report, error) {
	vertices := 100_000
	if quick {
		vertices = 20_000
	}
	g := graph.RandomGroundedTree(vertices, 0.2, 1)
	proto := core.NewTreeBroadcast(nil, core.RulePow2)
	rec := obs.NewRecorder(sampleEvery)
	r, err := sim.Run(g, proto, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: benchSeed, TrackAlphabet: true, Obs: rec})
	if err != nil {
		return nil, err
	}
	if r.Verdict != sim.Terminated {
		return nil, fmt.Errorf("obs capture broadcast did not terminate on %s", g)
	}
	return rec.Report(), nil
}

// benchShards is the multi-shard configuration of the shard benchmark and
// the shard count the CI speedup gate tracks. The target of the sharding
// work is >= 2.5x wall-clock at 100k vertices with 4 shards on a machine
// with >= 4 cores.
const benchShards = 4

// benchSeed seeds the shard benchmark's scheduler — and, through
// sim.Options.Seed, the partition the shard engine derives from it; the
// explicit PartitionGraph call below must use the same seed so the reported
// cut_edges describes the partition that actually ran.
const benchSeed = 7

// benchShardBroadcast times the sharded engine on the same seeded graph as
// the broadcast microbenchmark, once at 1 shard (the honest baseline: same
// engine, same superstep machinery, no parallelism) and once at benchShards
// shards, and reports the whole-run wall-clock ratio.
func benchShardBroadcast(vertices, repeats int) (*ShardBench, error) {
	g := graph.RandomGroundedTree(vertices, 0.2, 1)
	return benchShardOn(g, core.NewTreeBroadcast(nil, core.RulePow2), repeats)
}

// benchShardScalefree runs the same 1-vs-N measurement on a scale-free
// scenario graph under the general broadcast (the protocol sound on cyclic
// families). The hubs give the partition real ghost candidates and the
// skewed degree distribution gives the shards unequal drains, so this row is
// where the ghost and steal counters are expected to be non-zero.
func benchShardScalefree(quick bool, repeats int) (*ShardBench, error) {
	params := map[string]int{"n": 20_000, "m": 3}
	if quick {
		params = map[string]int{"n": 4_000, "m": 3}
	}
	g, err := scenario.Build("scalefree", params, 1)
	if err != nil {
		return nil, err
	}
	return benchShardOn(g, core.NewGeneralBroadcast(nil), repeats)
}

// benchShardOn times proto on g under the shard engine at 1 shard and at
// benchShards shards, and reports the wall-clock ratio plus the partition's
// ghost profile and the measured run's steal counters.
func benchShardOn(g *graph.G, proto protocol.Protocol, repeats int) (*ShardBench, error) {
	timeRuns := func(shards int) (wall time.Duration, warm *sim.Result, err error) {
		eng := shard.Engine(shards)
		run := func() (*sim.Result, error) {
			r, err := eng.Run(g, proto, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: benchSeed, TrackAlphabet: true})
			if err != nil {
				return nil, err
			}
			if r.Verdict != sim.Terminated {
				return nil, fmt.Errorf("shard bench broadcast did not terminate on %s", g)
			}
			return r, nil
		}
		warm, err = run()
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		for i := 0; i < repeats; i++ {
			if _, err := run(); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(t0), warm, nil
	}

	oneWall, oneWarm, err := timeRuns(1)
	if err != nil {
		return nil, err
	}
	nWall, nWarm, err := timeRuns(benchShards)
	if err != nil {
		return nil, err
	}
	part := graph.PartitionGraph(g, benchShards, benchSeed)

	return &ShardBench{
		Vertices:              g.NumVertices(),
		Edges:                 g.NumEdges(),
		Scheduler:             "random",
		Shards:                benchShards,
		CutEdges:              part.CutEdges,
		GhostVertices:         part.GhostVertices,
		GhostEdges:            part.GhostEdges,
		EffectiveCutEdges:     part.EffectiveCutEdges(),
		Repeats:               repeats,
		Deliveries:            nWarm.Steps,
		Steals:                nWarm.Steals,
		StolenEdges:           nWarm.StolenEdges,
		NsPerDeliveryOneShard: float64(oneWall.Nanoseconds()) / float64(repeats*oneWarm.Steps),
		NsPerDeliverySharded:  float64(nWall.Nanoseconds()) / float64(repeats*nWarm.Steps),
		Speedup:               float64(oneWall.Nanoseconds()) / float64(nWall.Nanoseconds()),
	}, nil
}

// benchScenarioSizes parameterizes each registry family for the scenario
// tier. Sizes are per family, not uniform: the general broadcast's traffic
// grows roughly quadratically on the strongly connected families (torus,
// regular, smallworld — every delivery can re-arm a cycle) and only
// linearly on the DAGs, so comparable wall-clock means very different
// vertex counts. Full sizes keep the whole tier in single-digit seconds.
var benchScenarioSizes = map[string]map[string]int{
	"chain":      {"n": 256},
	"karytree":   {"h": 7, "d": 2},
	"layered":    {"layers": 10, "width": 10},
	"layereddag": {"layers": 12, "width": 24},
	"line":       {"n": 256},
	"randdag":    {"n": 256, "extra": 256},
	"randnet":    {"n": 100, "extra": 100},
	"randtree":   {"n": 256},
	"regular":    {"n": 100, "d": 3},
	"ring":       {"n": 64},
	"scalefree":  {"n": 512, "m": 2},
	"smallworld": {"n": 100, "k": 3},
	"torus":      {"w": 10, "h": 10},
}

// benchScenarioSizesQuick is the reduced sweep for -quick.
var benchScenarioSizesQuick = map[string]map[string]int{
	"chain":      {"n": 64},
	"karytree":   {"h": 5, "d": 2},
	"layered":    {"layers": 6, "width": 6},
	"layereddag": {"layers": 6, "width": 10},
	"line":       {"n": 64},
	"randdag":    {"n": 64, "extra": 64},
	"randnet":    {"n": 40, "extra": 40},
	"randtree":   {"n": 64},
	"regular":    {"n": 40, "d": 3},
	"ring":       {"n": 24},
	"scalefree":  {"n": 128, "m": 2},
	"smallworld": {"n": 40, "k": 3},
	"torus":      {"w": 6, "h": 6},
}

// benchScenarioBroadcast runs the scenario tier: every registry family at
// its bench size, in registry (name) order, seed 1.
func benchScenarioBroadcast(quick bool, repeats int) ([]ScenarioBench, error) {
	sizes := benchScenarioSizes
	if quick {
		sizes = benchScenarioSizesQuick
	}
	var out []ScenarioBench
	for _, fam := range scenario.Families() {
		params := sizes[fam.Name]
		g, err := scenario.Build(fam.Name, params, 1)
		if err != nil {
			return nil, err
		}
		sb, err := timeScenario(fam.Name, scenario.Spec(fam, params, 1), "", g, repeats)
		if err != nil {
			return nil, err
		}
		out = append(out, *sb)
	}
	return out, nil
}

// BenchScenario times the sequential general broadcast on one scenario spec
// — the measurement behind anonbench's -graph flag. The spec is recorded
// verbatim in the result. A non-empty faultSpec arms a churn plan for every
// run (anonbench -faults); its canonical form lands in the result's Faults.
func BenchScenario(spec, faultSpec string, repeats int) (*ScenarioBench, error) {
	g, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	family, _, _ := strings.Cut(spec, ":")
	return timeScenario(strings.TrimSpace(family), spec, faultSpec, g, repeats)
}

// timeScenario measures ns/delivery of the general broadcast on g: one
// warm-up run, then repeats timed runs, mirroring benchBroadcast's protocol.
func timeScenario(family, spec, faultSpec string, g *graph.G, repeats int) (*ScenarioBench, error) {
	proto := core.NewGeneralBroadcast(nil)
	opts := sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 7}
	var canonical string
	if faultSpec != "" {
		faults, plan, err := scenario.CompileSpec(faultSpec, g)
		if err != nil {
			return nil, fmt.Errorf("scenario bench %s: %w", spec, err)
		}
		opts.Faults = faults
		canonical = plan.Canonical()
	}
	run := func() (*sim.Result, error) {
		r, err := sim.Run(g, proto, opts)
		if err != nil {
			return nil, err
		}
		// A churn plan may legitimately stall the broadcast short of
		// termination (crash with no recovery, a cut that disconnects the
		// graph) — quiescence is the outcome being measured. Fault-free runs
		// must still terminate.
		if r.Verdict != sim.Terminated && canonical == "" {
			return nil, fmt.Errorf("scenario bench %s did not terminate on %s", spec, g)
		}
		return r, nil
	}
	warm, err := run()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deliveries := 0
	for i := 0; i < repeats; i++ {
		r, err := run()
		if err != nil {
			return nil, err
		}
		deliveries += r.Steps
	}
	elapsed := time.Since(t0)
	return &ScenarioBench{
		Family:        family,
		Spec:          spec,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		Scheduler:     "random",
		Repeats:       repeats,
		Deliveries:    warm.Steps,
		NsPerDelivery: float64(elapsed.Nanoseconds()) / float64(deliveries),
		Faults:        canonical,
		Dropped:       warm.Dropped,
	}, nil
}

// benchChurnBroadcast times the general broadcast on a seeded random digraph
// under a churn plan: two mid vertices crash after their first delivery and
// recover two deliveries later, and one early edge is cut after its second
// send. The redundant digraph keeps most of the network reachable through the
// disturbance, so the run exercises the full crash/recover/cut bookkeeping
// while still doing real broadcast work. The plan is fixed relative to the
// vertex count so quick and full runs both fire every event kind.
func benchChurnBroadcast(quick bool, repeats int) (*ChurnBench, error) {
	// The general broadcast's delivery count grows superlinearly on this
	// family (~86k deliveries at 2k vertices, ~500k at 10k), so the tier runs
	// smaller than the tree tiers to keep the bench wall-clock bounded.
	n := 5_000
	if quick {
		n = 2_000
	}
	g := graph.RandomDigraph(n, 11, graph.RandomDigraphOpts{ExtraEdges: n, TerminalFrac: 0.2})
	spec := fmt.Sprintf("crash=%d:1,recover=%d:3,crash=%d:1,recover=%d:3,cut=%d:2",
		n/3, n/3, n/2, n/2, n/4)
	faults, plan, err := scenario.CompileSpec(spec, g)
	if err != nil {
		return nil, err
	}
	proto := core.NewGeneralBroadcast(nil)
	opts := sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 7, Faults: faults}
	run := func() (*sim.Result, error) {
		r, err := sim.Run(g, proto, opts)
		if err != nil {
			return nil, err
		}
		if r.Churn == nil {
			return nil, fmt.Errorf("churn bench on %s surfaced no churn report", g)
		}
		return r, nil
	}
	warm, err := run()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deliveries := 0
	for i := 0; i < repeats; i++ {
		r, err := run()
		if err != nil {
			return nil, err
		}
		deliveries += r.Steps
	}
	elapsed := time.Since(t0)
	var maxRestab int64
	for i := range warm.Churn.Events {
		if rs := warm.Churn.Restabilize(i); rs > maxRestab {
			maxRestab = rs
		}
	}
	return &ChurnBench{
		Vertices:       g.NumVertices(),
		Edges:          g.NumEdges(),
		Scheduler:      "random",
		Faults:         plan.Canonical(),
		Repeats:        repeats,
		Deliveries:     warm.Steps,
		Dropped:        warm.Dropped,
		ChurnEvents:    len(warm.Churn.Events),
		MaxRestabilize: maxRestab,
		NsPerDelivery:  float64(elapsed.Nanoseconds()) / float64(deliveries),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteBench serializes the report to path as indented JSON ("-" or empty
// for stdout).
func WriteBench(rep *BenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadBench loads a previously written BENCH.json.
func ReadBench(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// MaxRegression is the CI gate: a run whose ns/delivery exceeds the
// baseline's by more than this fraction fails the build.
const MaxRegression = 0.25

// MaxServerRegression is the CI gate on the run server's end-to-end
// throughput. It is looser than MaxRegression on purpose: runs/sec crosses
// the HTTP loopback stack, so its variance is dominated by the kernel and
// the Go net poller, not by the delivery hot path the tighter gate guards.
const MaxServerRegression = 0.4

// MinShardSpeedup is the absolute scaling target of the sharding work:
// a full-size (non-quick) run on a machine with at least benchShards cores
// must deliver this 1-shard-vs-N-shard wall-clock ratio, independent of
// what any baseline recorded. Quick runs are exempt — at 20k vertices the
// superstep overhead dominates and the ratio is not meaningful.
const MinShardSpeedup = 2.5

// CompareBench gates cur against base: an error describes a hot-path
// regression beyond MaxRegression, nil means within budget. Schema
// mismatches are errors (the numbers would not be comparable), improvements
// are always fine. Both the single-threaded delivery path and the sharded
// engine are gated: sharded ns/delivery like the sequential number, and the
// 1-shard-vs-N-shard speedup relative to the baseline's (a thread-scaling
// regression is a perf bug even when single-core speed is unchanged).
func CompareBench(cur, base *BenchReport) error {
	_, err := CompareBenchWarnings(cur, base)
	return err
}

// CompareBenchWarnings is CompareBench with a migration path: a baseline
// exactly one schema version behind (v5, before the churn_broadcast tier) is
// still gated on the fields both layouts share — the current-version-only
// rows are skipped with a warning telling the operator to regenerate — while
// any other version skew stays a hard error. The returned warnings must be
// surfaced (anonbench prints them to stderr); a silently half-armed gate is
// how baselines rot.
func CompareBenchWarnings(cur, base *BenchReport) ([]string, error) {
	var warns []string
	if cur.SchemaVersion != base.SchemaVersion {
		if cur.SchemaVersion == benchSchemaVersion && base.SchemaVersion == benchSchemaVersion-1 {
			warns = append(warns, fmt.Sprintf(
				"baseline uses schema v%d (pre churn_broadcast); gating shared fields only — regenerate the baseline to arm the v%d gates",
				base.SchemaVersion, cur.SchemaVersion))
		} else {
			return warns, fmt.Errorf("bench: schema %d vs baseline %d — regenerate the baseline", cur.SchemaVersion, base.SchemaVersion)
		}
	}
	if cur.Quick != base.Quick {
		return warns, fmt.Errorf("bench: quick=%v vs baseline quick=%v — not comparable", cur.Quick, base.Quick)
	}
	limit := base.Broadcast.NsPerDelivery * (1 + MaxRegression)
	if cur.Broadcast.NsPerDelivery > limit {
		return warns, fmt.Errorf("bench: ns/delivery regressed: %.1f vs baseline %.1f (limit %.1f, +%d%%)",
			cur.Broadcast.NsPerDelivery, base.Broadcast.NsPerDelivery, limit, int(MaxRegression*100))
	}
	if base.ShardBroadcast.Shards != 0 || base.ShardScalefree.Shards != 0 {
		// The shard comparisons are a function of available parallelism, so
		// core-count drift between run and baseline is a hard failure here —
		// not the stderr warning the single-threaded metrics get. A 1-core
		// baseline would leave the speedup gate permanently unarmed (its
		// speedup hovers near 1x and any multi-core run trivially clears the
		// relative floor); CI regenerates the baseline on the gating runner
		// when core counts differ (see .github/workflows/ci.yml).
		if cur.Gomaxprocs != base.Gomaxprocs {
			return warns, fmt.Errorf("bench: shard tiers not comparable: baseline ran with GOMAXPROCS=%d, this run with %d — regenerate the baseline on this machine",
				base.Gomaxprocs, cur.Gomaxprocs)
		}
	}
	// The relative gates apply to every shard row present in the baseline; a
	// v4 baseline has no shard_scalefree row (Shards == 0), so that row is
	// covered by the migration warning above until the baseline regenerates.
	shardRows := []struct {
		label     string
		cur, base ShardBench
	}{
		{"shard_broadcast", cur.ShardBroadcast, base.ShardBroadcast},
		{"shard_scalefree", cur.ShardScalefree, base.ShardScalefree},
	}
	for _, row := range shardRows {
		if row.base.Shards == 0 {
			continue
		}
		shardLimit := row.base.NsPerDeliverySharded * (1 + MaxRegression)
		if row.cur.NsPerDeliverySharded > shardLimit {
			return warns, fmt.Errorf("bench: %s sharded ns/delivery regressed: %.1f vs baseline %.1f (limit %.1f, +%d%%)",
				row.label, row.cur.NsPerDeliverySharded, row.base.NsPerDeliverySharded,
				shardLimit, int(MaxRegression*100))
		}
		floor := row.base.Speedup * (1 - MaxRegression)
		if row.cur.Speedup < floor {
			return warns, fmt.Errorf("bench: %s shard speedup regressed: %.2fx vs baseline %.2fx (floor %.2fx, -%d%%)",
				row.label, row.cur.Speedup, row.base.Speedup, floor, int(MaxRegression*100))
		}
	}
	// The churn tier is double-gated: its outcome counters are deterministic
	// in (graph seed, plan), so any drift against the baseline is a
	// churn-semantics regression — a hard equality check, not a percentage
	// band — and its delivery rate is gated like the other hot paths. A
	// pre-v6 baseline has no row (Deliveries == 0) and is covered by the
	// migration warning until regenerated.
	if cb, bb := cur.ChurnBroadcast, base.ChurnBroadcast; bb.Deliveries != 0 {
		if cb.Faults == bb.Faults &&
			(cb.Deliveries != bb.Deliveries || cb.Dropped != bb.Dropped ||
				cb.ChurnEvents != bb.ChurnEvents || cb.MaxRestabilize != bb.MaxRestabilize) {
			return warns, fmt.Errorf("bench: churn_broadcast outcome drifted from baseline: deliveries %d/%d dropped %d/%d events %d/%d max_restabilize %d/%d — churn semantics changed",
				cb.Deliveries, bb.Deliveries, cb.Dropped, bb.Dropped,
				cb.ChurnEvents, bb.ChurnEvents, cb.MaxRestabilize, bb.MaxRestabilize)
		}
		churnLimit := bb.NsPerDelivery * (1 + MaxRegression)
		if cb.NsPerDelivery > churnLimit {
			return warns, fmt.Errorf("bench: churn_broadcast ns/delivery regressed: %.1f vs baseline %.1f (limit %.1f, +%d%%)",
				cb.NsPerDelivery, bb.NsPerDelivery, churnLimit, int(MaxRegression*100))
		}
	}
	// The absolute scaling target stays on the 100k grounded-tree tier only:
	// that is the workload the MinShardSpeedup goal is defined on.
	if base.ShardBroadcast.Shards != 0 &&
		!cur.Quick && cur.Gomaxprocs >= cur.ShardBroadcast.Shards &&
		cur.ShardBroadcast.Speedup < MinShardSpeedup {
		return warns, fmt.Errorf("bench: shard speedup %.2fx below the absolute %.2fx target (full-size run, GOMAXPROCS=%d >= %d shards)",
			cur.ShardBroadcast.Speedup, MinShardSpeedup, cur.Gomaxprocs, cur.ShardBroadcast.Shards)
	}
	if sv := cur.ServerThroughput; sv != nil && sv.Requests > 0 {
		// The hit rate is deterministic, not statistical: singleflight makes
		// Executions == DistinctKeys for any interleaving, so the expected
		// rate is exact and gated absolutely (the epsilon only absorbs
		// float division).
		want := 1 - float64(sv.DistinctKeys)/float64(sv.Requests)
		if sv.CacheHitRate+1e-9 < want {
			return warns, fmt.Errorf("bench: server cache hit rate %.4f below the deterministic %.4f (%d distinct keys over %d requests) — dedup is broken",
				sv.CacheHitRate, want, sv.DistinctKeys, sv.Requests)
		}
		if base.ServerThroughput != nil && base.ServerThroughput.Requests > 0 {
			floor := base.ServerThroughput.RunsPerSec * (1 - MaxServerRegression)
			if sv.RunsPerSec < floor {
				return warns, fmt.Errorf("bench: server throughput regressed: %.0f runs/sec vs baseline %.0f (floor %.0f, -%d%%)",
					sv.RunsPerSec, base.ServerThroughput.RunsPerSec, floor, int(MaxServerRegression*100))
			}
		}
	}
	return warns, nil
}

// StaleBaselineWarnings reports environment drift between a run and the
// baseline it is gated against. A baseline produced by a different
// toolchain or on different parallelism is not silently comparable — the
// gate still runs (the margins absorb moderate drift), but the caller must
// surface these so a stale baseline is regenerated instead of trusted.
func StaleBaselineWarnings(cur, base *BenchReport) []string {
	var warns []string
	if cur.GoVersion != base.GoVersion {
		warns = append(warns, fmt.Sprintf(
			"baseline was produced by %s, this run by %s — toolchain drift skews ns/delivery; regenerate the baseline",
			base.GoVersion, cur.GoVersion))
	}
	if cur.Gomaxprocs != base.Gomaxprocs {
		warns = append(warns, fmt.Sprintf(
			"baseline ran with GOMAXPROCS=%d, this run with %d — parallel tiers and shard speedup are not comparable; regenerate the baseline",
			base.Gomaxprocs, cur.Gomaxprocs))
	}
	return warns
}
