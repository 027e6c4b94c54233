// Package serve is the multi-tenant run server behind cmd/anonserved: an
// HTTP admission layer over the anonnet facade with a memoized verdict
// cache. Every run on the servable engines (seq, sync, shard) is a pure
// function of its anonnet.Request, so the server keys responses by the full
// purity tuple (Key), deduplicates identical concurrent requests through a
// singleflight group, bounds concurrency with the per-tenant fair queue of
// internal/par.Pool, and answers saturation with 429 + Retry-After instead
// of queueing unboundedly. Cache identity, admission policy, and the wire
// schema are specified in docs/SERVER.md; the key-field table there is
// drift-guarded against the Key struct.
package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	anonnet "repro"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// Key is the purity tuple a verdict is cached under — every request field
// that can change a response byte is represented. The graph enters as two
// hashes: GraphSum fixes the exact serialized network (metrics are
// functions of the concrete port numbering), GraphFP the isomorphism class
// (provenance). A scenario spec and an embedded network text describing the
// same concrete network therefore share one cache entry. The fault plan
// enters in scenario.FaultPlan.Canonical form, so equivalent spellings
// ("loss=10,drop=0:1" vs "drop=0:1,loss=10") share entries while every
// effective fault term (drop edge/count, loss, crash vertex/count, loss
// seed) keeps its own. Tenancy is deliberately absent: results are pure, so
// tenants share the cache safely. docs/SERVER.md documents each field; the
// table is drift-guarded by the facade's docdrift test, and the
// completeness property test in key_test.go mutates every anonnet.Request
// field and demands the key move.
type Key struct {
	// Op is the protocol family ("broadcast" | "labels" | "topology").
	Op string
	// GraphFP is the network's isomorphism-invariant graph.Fingerprint.
	GraphFP uint64
	// GraphSum is FNV-1a over the exact canonical serialized network text.
	GraphSum uint64
	// Message is the broadcast payload.
	Message string
	// Protocol is the requested protocol name ("" normalized to "auto").
	Protocol string
	// Engine is the engine name ("" normalized to "seq").
	Engine string
	// Scheduler is the adversary name ("" normalized to "fifo", and any
	// name to "fifo" on the sync engine, which always runs fifo).
	Scheduler string
	// Seed is the scheduler seed.
	Seed int64
	// Shards is the effective shard count (0 unless Engine == "shard").
	Shards int
	// MaxSteps is the requested step bound (0 = default).
	MaxSteps int
	// Faults is the canonical fault-plan rendering ("" = fault-free).
	Faults string
	// Alphabet records whether alphabet tracking was requested.
	Alphabet bool
	// Timeline is the effective telemetry stride: -1 when no timeline was
	// requested, 0 for the default stride, else the requested stride.
	Timeline int
}

// String renders the key tuple in a stable human-readable form.
func (k Key) String() string {
	return fmt.Sprintf("op=%s fp=%016x sum=%016x msg=%q proto=%s engine=%s sched=%s seed=%d shards=%d maxsteps=%d faults=%q alphabet=%v timeline=%d",
		k.Op, k.GraphFP, k.GraphSum, k.Message, k.Protocol, k.Engine, k.Scheduler,
		k.Seed, k.Shards, k.MaxSteps, k.Faults, k.Alphabet, k.Timeline)
}

// Digest returns the 64-bit FNV-1a digest of the rendered tuple — the
// compact cache-provenance identifier responses carry.
func (k Key) Digest() string {
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// servableEngines are the engines whose runs are pure functions of the
// request — the precondition for caching. The wild engines (concurrent,
// tcp) draw their schedule from the Go runtime and the kernel and are
// refused at admission.
var servableEngines = []string{"seq", "sync", "shard"}

// KeyOf validates req and derives its cache key, resolving the network on
// the way. Every rejection is a typed *Error carrying the HTTP status and
// error code the API maps it to.
func KeyOf(req *anonnet.Request, limits Limits) (Key, *Error) {
	k := Key{
		Op:        req.Op,
		Message:   req.Message,
		Protocol:  req.Protocol,
		Engine:    req.Engine,
		Scheduler: req.Scheduler,
		Seed:      req.Seed,
		Shards:    req.Shards,
		MaxSteps:  req.MaxSteps,
		Alphabet:  req.Alphabet,
		Timeline:  -1,
	}
	if k.Op == "" {
		k.Op = "broadcast"
	}
	if !slices.Contains(anonnet.Ops(), k.Op) {
		return Key{}, Errf(CodeBadOp, "unknown op %q (have %s)", req.Op, strings.Join(anonnet.Ops(), "|"))
	}
	if _, err := anonnet.ProtocolByName(req.Protocol); err != nil {
		return Key{}, Errf(CodeUnknownProtocol, "%v", err)
	}
	if k.Protocol == "" {
		k.Protocol = "auto"
	}
	if k.Engine == "" {
		k.Engine = "seq"
	}
	if _, err := anonnet.EngineByName(k.Engine); err != nil {
		return Key{}, Errf(CodeUnknownEngine, "%v", err)
	}
	if !slices.Contains(servableEngines, k.Engine) {
		return Key{}, Errf(CodeEngineNotServable,
			"engine %q is nondeterministic and not servable (have %s)", k.Engine, strings.Join(servableEngines, "|"))
	}
	// Socket chaos only exists on the tcp engine, which is refused above; a
	// chaos spec can therefore never be satisfied by a servable run. Reject
	// it explicitly (instead of ignoring it) so the field needs no key
	// representation: no admitted request ever carries one. Fault plans are
	// the servable alternative — they perturb the protocol deterministically.
	if req.Chaos != "" {
		return Key{}, Errf(CodeChaosNotServable,
			"socket chaos %q requires the tcp engine, which is not servable; use the faults field for deterministic churn", req.Chaos)
	}
	if k.Scheduler == "" {
		k.Scheduler = "fifo"
	}
	if !slices.Contains(anonnet.SchedulerNames(), k.Scheduler) {
		return Key{}, Errf(CodeUnknownScheduler,
			"unknown scheduler %q (have %s)", req.Scheduler, strings.Join(anonnet.SchedulerNames(), "|"))
	}
	if k.Engine == "sync" {
		k.Scheduler = "fifo" // a synchronous run is the fifo schedule, whatever the request names
	}
	if k.Engine == "shard" {
		if k.Shards == 0 {
			k.Shards = anonnet.DefaultShards
		}
		if k.Shards < 0 {
			return Key{}, Errf(CodeBadRequest, "negative shard count %d", req.Shards)
		}
	} else {
		k.Shards = 0 // the other engines ignore the field
	}
	if req.Timeline {
		k.Timeline = req.TimelineEvery
		if k.Timeline < 0 {
			k.Timeline = 0
		}
	}

	net, apiErr := resolveNetwork(req, limits)
	if apiErr != nil {
		return Key{}, apiErr
	}
	k.GraphFP = net.Fingerprint()
	h := fnv.New64a()
	h.Write(net.MarshalText())
	k.GraphSum = h.Sum64()

	if req.Faults != "" {
		plan, err := scenario.ParseFaults(req.Faults)
		if err != nil {
			return Key{}, Errf(CodeBadFaults, "%v", err)
		}
		if err := net.CheckFaults(req.Faults); err != nil {
			return Key{}, Errf(CodeBadFaults, "%v", err)
		}
		k.Faults = plan.Canonical()
	}
	return k, nil
}

// resolveNetwork builds the request's network and enforces the size limits
// before building it: a scenario's vertex and edge counts follow from the
// spec, and network text's from its vertices directive and edge lines.
// The '@'-fault suffix of WithScenario is refused on the wire: fault plans
// are first-class in the API and travel in the Faults field only.
func resolveNetwork(req *anonnet.Request, limits Limits) (*anonnet.Network, *Error) {
	switch {
	case req.Scenario != "" && req.Network != "":
		return nil, Errf(CodeBadRequest, "scenario and network are mutually exclusive")
	case req.Scenario != "":
		if strings.Contains(req.Scenario, "@") {
			return nil, Errf(CodeBadScenario, "scenario spec %q carries an '@' fault suffix; put the fault plan in the faults field", req.Scenario)
		}
		vertices, edges, err := scenario.Size(req.Scenario)
		if err != nil {
			return nil, Errf(CodeBadScenario, "%v", err)
		}
		if apiErr := checkSize(vertices, edges, limits); apiErr != nil {
			return nil, apiErr
		}
		net, err := anonnet.ScenarioNetwork(req.Scenario)
		if err != nil {
			return nil, Errf(CodeBadScenario, "%v", err)
		}
		return net, nil
	case req.Network != "":
		vertices, edges := graph.TextSize(req.Network)
		if apiErr := checkSize(vertices, edges, limits); apiErr != nil {
			return nil, apiErr
		}
		net, err := anonnet.ParseNetwork(strings.NewReader(req.Network))
		if err != nil {
			return nil, Errf(CodeBadNetwork, "%v", err)
		}
		return net, nil
	default:
		return nil, Errf(CodeBadRequest, "one of scenario or network is required")
	}
}

// maxEdgesPerVertex bounds the edges of an admitted network at this many
// times MaxVertices. A scenario family can raise its edge count without
// bound at a fixed vertex count (regular's d, layereddag's fanout), and a
// run's cost grows with the edges.
const maxEdgesPerVertex = 8

// checkSize refuses a network of the given vertex and edge counts when it
// exceeds the limits. A scenario's counts saturate at math.MaxInt, which no
// limit admits.
func checkSize(vertices, edges int, limits Limits) *Error {
	if limits.MaxVertices <= 0 {
		return nil
	}
	if vertices > limits.MaxVertices {
		return Errf(CodeNetworkTooLarge, "network has %d vertices, the server admits at most %d", vertices, limits.MaxVertices)
	}
	if maxEdges := maxEdgesPerVertex * limits.MaxVertices; edges > maxEdges {
		return Errf(CodeNetworkTooLarge, "network has %d edges, the server admits at most %d", edges, maxEdges)
	}
	return nil
}
