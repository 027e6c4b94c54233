package anonnet

import (
	"reflect"
	"testing"
)

// TestShardEngineFacade drives EngineSharded end to end through the public
// facade: broadcast, label assignment and topology extraction must agree
// with the sequential engine on every schedule-independent quantity, across
// shard counts.
func TestShardEngineFacade(t *testing.T) {
	n := specNet("randnet:n=24,extra=30,seed=11")

	seqRep, err := Broadcast(n, []byte("payload"), WithAlphabetTracking())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		rep, err := Broadcast(n, []byte("payload"),
			WithEngine(EngineSharded), WithShards(shards), WithScheduler("random"), WithSeed(7),
			WithAlphabetTracking())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("shards=%d: report %+v", shards, rep)
		}
		if rep.Protocol != seqRep.Protocol {
			t.Fatalf("shards=%d: protocol %s, sequential %s", shards, rep.Protocol, seqRep.Protocol)
		}
	}

	seqLabels, _, err := AssignLabels(n)
	if err != nil {
		t.Fatal(err)
	}
	labels, _, err := AssignLabels(n, WithEngine(EngineSharded), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	// The labeled-vertex set is schedule-independent; the concrete intervals
	// are not (they differ between sequential schedulers too).
	if len(labels) != len(seqLabels) {
		t.Fatalf("sharded labeling labeled %d vertices, sequential %d", len(labels), len(seqLabels))
	}
	for v := range seqLabels {
		if _, ok := labels[v]; !ok {
			t.Fatalf("vertex %d labeled sequentially but not under the shard engine", v)
		}
	}

	topo, _, err := ExtractTopology(n, WithEngine(EngineSharded), WithShards(4), WithScheduler("greedy"))
	if err != nil {
		t.Fatal(err)
	}
	iso, err := topo.IsomorphicTo(n)
	if err != nil {
		t.Fatal(err)
	}
	if !iso {
		t.Fatal("topology extracted under the shard engine is not isomorphic to the network")
	}
}

// TestShardEngineDeterministicFacade: a fixed (scheduler, seed, shards)
// triple yields byte-identical reports through the facade.
func TestShardEngineDeterministicFacade(t *testing.T) {
	n := specNet("randnet:n=30,extra=40,seed=3")
	opts := func() []Option {
		return []Option{
			WithEngine(EngineSharded), WithShards(4), WithScheduler("random"), WithSeed(13),
			WithAlphabetTracking(),
		}
	}
	a, err := Broadcast(n, []byte("m"), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Broadcast(n, []byte("m"), opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical shard runs produced different reports:\n%+v\n%+v", a, b)
	}
}

// TestShardEngineRecordReplay: WithRecordTrace on the shard engine captures
// a wild-shard trace whose strict sequential replay reproduces the verdict —
// the facade face of the wild-capture pipeline.
func TestShardEngineRecordReplay(t *testing.T) {
	n := specNet("ring:n=6")
	var tr *TraceData
	rep, err := Broadcast(n, []byte("m"),
		WithEngine(EngineSharded), WithShards(3), WithRecordTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Scheduler() != "wild-shard" {
		t.Fatalf("trace scheduler %q, want wild-shard", tr.Scheduler())
	}
	rep2, err := Broadcast(n, []byte("m"), WithReplayTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Terminated != rep.Terminated || rep2.AllReceived != rep.AllReceived {
		t.Fatalf("replayed shard trace diverges: %+v vs %+v", rep2, rep)
	}
}
