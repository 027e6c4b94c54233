package sim

import (
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/msgq"
)

// TestEngineTeardownNeverPinsPayloads is the engine-level half of the chunk
// pool's leak-regression contract (the queue-level half lives in
// internal/msgq): a run that terminates with messages still in flight
// releases its queues through the same cleared-slot invariant, so pooled
// chunks never pin payloads across runs.
func TestEngineTeardownNeverPinsPayloads(t *testing.T) {
	dirty := 0
	msgq.TestingRecycleObserver = func(live int) { dirty += live }
	defer func() { msgq.TestingRecycleObserver = nil }()

	g := graph.KaryGroundedTree(3, 4)
	r, err := Run(g, floodProto{need: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Terminated {
		t.Fatalf("verdict %s, want terminated", r.Verdict)
	}
	if dirty != 0 {
		t.Fatalf("engine teardown recycled %d live slots", dirty)
	}
}

// TestEdgeRecordSize pins the per-edge record of the sequential and sharded
// engines at 40 bytes: a delivery reads one record, and the run allocates
// one per edge, so a larger record costs both cache footprint and allocated
// bytes on every run.
func TestEdgeRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(EdgeRecord{}); got > 40 {
		t.Fatalf("EdgeRecord is %d bytes, want <= 40", got)
	}
}
