package anonnet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestRecordReplayFacade drives the public record/replay options end to end:
// record under a seeded adversary, encode, decode, rebuild the network from
// the trace alone, replay, and compare the reports.
func TestRecordReplayFacade(t *testing.T) {
	net := specNet("randnet:n=10,extra=12,seed=5")
	var td *TraceData
	rep, err := Broadcast(net, []byte("m"),
		WithScheduler("random"), WithSeed(9), WithRecordTrace(&td))
	if err != nil {
		t.Fatal(err)
	}
	if td == nil {
		t.Fatal("WithRecordTrace left dst nil after a successful run")
	}
	if td.Protocol() != rep.Protocol || td.Scheduler() != "random" || td.Seed() != 9 {
		t.Fatalf("trace header %s does not match the run (protocol %s)", td, rep.Protocol)
	}

	data := td.Encode()
	dec, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), data) {
		t.Fatal("encode/decode round trip not byte-identical")
	}
	net2, err := dec.Network()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Broadcast(net2, []byte("m"), WithReplayTrace(dec))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Steps != rep.Steps || rep2.Messages != rep.Messages || rep2.Terminated != rep.Terminated {
		t.Fatalf("replayed report diverges: %+v vs %+v", rep2, rep)
	}

	// Re-recording the replayed run must reproduce the trace byte for byte.
	var td2 *TraceData
	if _, err := Broadcast(net2, []byte("m"), WithReplayTrace(dec), WithRecordTrace(&td2)); err != nil {
		t.Fatal(err)
	}
	if td2 == nil {
		t.Fatal("recording during replay left dst nil")
	}
	if !bytes.Equal(td2.Encode(), data) {
		t.Fatalf("re-recorded replay is not byte-identical: %s vs %s", td2, td)
	}
}

// TestReplayWrongNetworkErrors: the fingerprint check must reject a replay
// against a structurally different network.
func TestReplayWrongNetworkErrors(t *testing.T) {
	var td *TraceData
	if _, err := Broadcast(specNet("ring:n=5"), []byte("m"), WithRecordTrace(&td)); err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(specNet("ring:n=6"), []byte("m"), WithReplayTrace(td)); err == nil {
		t.Fatal("replay against a different network did not error")
	}
}

// TestRecordOnConcurrentEngine: the wild-capture tier makes the concurrent
// engine recordable — the captured schedule canonicalizes into a trace the
// sequential engine replays byte-identically. Replay itself remains a
// sequential-engine operation.
func TestRecordOnConcurrentEngine(t *testing.T) {
	net := specNet("ring:n=4")
	var td *TraceData
	rep, err := Broadcast(net, []byte("m"),
		WithEngine(EngineConcurrent), WithRecordTrace(&td))
	if err != nil {
		t.Fatal(err)
	}
	if td == nil {
		t.Fatal("WithRecordTrace left dst nil after a successful wild run")
	}
	if td.Scheduler() != "wild-concurrent" {
		t.Fatalf("wild trace scheduler %q, want wild-concurrent", td.Scheduler())
	}
	rep2, err := Broadcast(net, []byte("m"), WithReplayTrace(td))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Terminated != rep.Terminated {
		t.Fatalf("replayed verdict diverges: %+v vs %+v", rep2, rep)
	}
	// Re-recording the replay must reproduce the canonical trace exactly.
	var td2 *TraceData
	if _, err := Broadcast(net, []byte("m"), WithReplayTrace(td), WithRecordTrace(&td2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(td2.Encode(), td.Encode()) {
		t.Fatalf("re-recorded wild replay is not byte-identical: %s vs %s", td2, td)
	}

	// Replaying ON the concurrent engine is still meaningless and errors.
	if _, err := Broadcast(net, []byte("m"),
		WithEngine(EngineConcurrent), WithReplayTrace(td)); err == nil {
		t.Fatal("replaying on the concurrent engine did not error")
	}
}

// TestScheduleFuzzFacade: WithScheduleFuzz runs a bounded differential
// campaign over the recorded schedule and reports zero violations for the
// paper's (schedule-independent) protocols.
func TestScheduleFuzzFacade(t *testing.T) {
	var fr *FuzzReport
	if _, err := Broadcast(specNet("randnet:n=8,extra=9,seed=4"), []byte("m"),
		WithScheduler("random"), WithSeed(6), WithScheduleFuzz(16, &fr)); err != nil {
		t.Fatal(err)
	}
	if fr == nil {
		t.Fatal("WithScheduleFuzz left dst nil")
	}
	if fr.Mutants == 0 {
		t.Fatalf("no mutants ran: %s", fr)
	}
	if fr.Violations != 0 {
		t.Fatalf("schedule fuzz found violations on a schedule-independent protocol: %s", fr)
	}
	// Fuzzing composes with the wild engines: capture, canonicalize, fuzz.
	fr = nil
	if _, err := Broadcast(specNet("ring:n=4"), []byte("m"),
		WithEngine(EngineConcurrent), WithScheduleFuzz(8, &fr)); err != nil {
		t.Fatal(err)
	}
	if fr == nil || fr.Mutants == 0 || fr.Violations != 0 {
		t.Fatalf("wild-engine fuzz report: %v", fr)
	}
}

// TestRecordOnSynchronousEngine: the sync engine is the sequential engine
// under fifo, so a trace recorded on it carries exactly the events of one
// recorded on seq with fifo — only the header's scheduler name differs, and
// a scheduler handed to sync is ignored — and it replays strictly on the
// sequential engine, re-recording the same events.
func TestRecordOnSynchronousEngine(t *testing.T) {
	cases := []struct{ spec, faults, sched string }{
		{"chain:n=4", "", ""},
		{"randnet:n=10,extra=12,seed=5", "", "lifo"},
		{"torus:w=4,h=4", "crash=2:1,recover=2:4,cut=1:2", "random"},
	}
	for _, c := range cases {
		net := specNet(c.spec)
		var syncTD, seqTD, replayTD *TraceData
		rep, err := Broadcast(net, []byte("m"), WithEngine(EngineSynchronous),
			WithScheduler(c.sched), WithFaults(c.faults), WithRecordTrace(&syncTD))
		if err != nil && !errors.Is(err, ErrNotTerminated) {
			t.Fatal(err)
		}
		if syncTD == nil || syncTD.Scheduler() != "sync" {
			t.Fatalf("%s: sync recording header wrong: %v", c.spec, syncTD)
		}
		if _, err := Broadcast(net, []byte("m"), WithEngine(EngineSequential),
			WithScheduler("fifo"), WithFaults(c.faults), WithRecordTrace(&seqTD)); err != nil && !errors.Is(err, ErrNotTerminated) {
			t.Fatal(err)
		}
		want := *seqTD.tr
		want.Scheduler = "sync"
		if !reflect.DeepEqual(*syncTD.tr, want) {
			t.Errorf("%s: sync trace %v differs from seq/fifo's %v beyond the scheduler name", c.spec, syncTD, seqTD)
		}

		rep2, err := Broadcast(net, []byte("m"), WithReplayTrace(syncTD), WithRecordTrace(&replayTD))
		if err != nil && !errors.Is(err, ErrNotTerminated) {
			t.Fatalf("%s: strict replay of the sync trace: %v", c.spec, err)
		}
		if !reflect.DeepEqual(replayTD.tr.Events, syncTD.tr.Events) {
			t.Errorf("%s: replay re-recorded other events than the sync trace", c.spec)
		}
		if rep2.Terminated != rep.Terminated || rep2.Steps != rep.Steps ||
			rep2.Messages != rep.Messages || rep2.TotalBits != rep.TotalBits {
			t.Errorf("%s: sync trace replay diverges: %+v vs %+v", c.spec, rep2, rep)
		}
	}
}
