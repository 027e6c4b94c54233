package sim

import (
	"repro/internal/graph"
	"repro/internal/protocol"
)

// Engine is the uniform entry point to every execution substrate: the three
// in-memory engines of this package and the TCP tier of package netrun (the
// wild runner over a socket Transport) all run a protocol on a graph and
// produce the same Result shape, so callers (the anonnet facade, the
// experiment drivers, the conformance suite) can treat "where does this
// run" as data.
//
// The paper's correctness claims are schedule-independent: broadcast,
// labeling, and mapping must reach the same verdict under any engine and any
// Scheduler. Metrics may legitimately differ between schedules — that
// difference is the object of study, not a bug.
type Engine interface {
	// Name identifies the engine in reports and CLI flags.
	Name() string
	// Run executes p on g and returns the outcome.
	Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error)
}

// Sequential returns the deterministic event-driven engine (function Run):
// the only engine whose asynchrony adversary — Options.Scheduler — is
// pluggable and seeded.
func Sequential() Engine { return seqEngine{} }

// Concurrent returns the goroutine-per-vertex engine, whose schedule comes
// from the Go runtime: the Wild runner with one worker per vertex and no
// transport, so every edge is an inbox append.
func Concurrent() Engine { return chanEngine{} }

// Synchronous returns the global-rounds engine of the paper's Section 2:
// every message sent in round k is delivered in round k+1. A synchronous
// run is one asynchronous schedule, the fifo one, so this is the
// sequential engine under the fifo scheduler (Options.Scheduler is
// ignored) plus a round clock, which measures time in Result.Rounds.
func Synchronous() Engine { return syncEngine{} }

type seqEngine struct{}

func (seqEngine) Name() string { return "seq" }
func (seqEngine) Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	return Run(g, p, opts)
}

type chanEngine struct{}

func (chanEngine) Name() string { return "concurrent" }
func (chanEngine) Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	w := Wild{Provenance: "wild-concurrent", Seed: opts.Seed, RunPhase: "run", MaxSteps: int64(maxSteps)}
	return w.Run(g, p, opts)
}

type syncEngine struct{}

func (syncEngine) Name() string { return "sync" }
func (syncEngine) Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	opts.Scheduler = NewFIFOScheduler()
	return run(g, p, opts, true)
}
