package anonnet_test

import (
	"fmt"
	"log"
	"sort"

	anonnet "repro"
)

// Broadcasting over a hand-built anonymous network with a cycle: the
// terminal halts exactly when every vertex has the message.
func ExampleBroadcast() {
	// s -> a; a -> b, a -> c; b -> t; c -> t, c -> a (a cycle).
	b := anonnet.NewBuilder(5).SetRoot(0).SetTerminal(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2).AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4).AddEdge(3, 1)
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := anonnet.Broadcast(net, []byte("update"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Protocol, "terminated:", rep.Terminated, "all received:", rep.AllReceived)
	// Output:
	// generalcast terminated: true all received: true
}

// Broadcasting must not terminate when some vertex cannot reach the
// terminal; the error reports it.
func ExampleBroadcast_deadEnd() {
	b := anonnet.NewBuilder(4).SetRoot(0).SetTerminal(2)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 3) // vertex 3 is a dead end
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	_, err = anonnet.Broadcast(net, nil)
	fmt.Println(err)
	// Output:
	// anonnet: protocol did not terminate (some vertex cannot reach the terminal)
}

// Unique labels from nothing: anonymous vertices end up owning disjoint
// sub-intervals of [0, 1).
func ExampleAssignLabels() {
	net, err := anonnet.ScenarioNetwork("line:n=3") // s -> v1 -> v2 -> v3 -> t
	if err != nil {
		log.Fatal(err)
	}
	labels, _, err := anonnet.AssignLabels(net)
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]anonnet.VertexID, 0, len(labels))
	for v := range labels {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		fmt.Printf("v%d %s\n", v, labels[v])
	}
	// Output:
	// v1 [0, 0.1)
	// v2 [0.1, 0.11)
	// v3 [0.11, 0.111)
}

// Pinning a run's schedule to a self-contained trace and re-executing it
// byte-identically: the trace embeds the network, so the replay side needs
// nothing but the bytes.
func ExampleWithRecordTrace() {
	net, err := anonnet.ScenarioNetwork("ring:n=4")
	if err != nil {
		log.Fatal(err)
	}
	var td *anonnet.TraceData
	rep, err := anonnet.Broadcast(net, []byte("m"),
		anonnet.WithScheduler("lifo"), anonnet.WithRecordTrace(&td))
	if err != nil {
		log.Fatal(err)
	}
	data := td.Encode() // ship it, commit it — the network travels inside

	dec, err := anonnet.DecodeTrace(data)
	if err != nil {
		log.Fatal(err)
	}
	net2, err := dec.Network()
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := anonnet.Broadcast(net2, []byte("m"), anonnet.WithReplayTrace(dec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %s schedule, identical run: %v\n",
		dec.Scheduler(), rep2.Steps == rep.Steps && rep2.Messages == rep.Messages)
	// Output:
	// replayed lifo schedule, identical run: true
}

// Differential schedule fuzzing as a facade option: the run's schedule is
// recorded, mutated into nearby valid schedules, and every mutant must
// reach the same schedule-independent outcome. A nonzero violation count
// would come with a 1-minimal repro trace in FuzzReport.MinimalRepro.
func ExampleWithScheduleFuzz() {
	net, err := anonnet.ScenarioNetwork("ring:n=4")
	if err != nil {
		log.Fatal(err)
	}
	var fr *anonnet.FuzzReport
	if _, err := anonnet.Broadcast(net, []byte("m"),
		anonnet.WithSeed(1), anonnet.WithScheduleFuzz(16, &fr)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutants: %d, violations: %d\n", fr.Mutants, fr.Violations)
	// Output:
	// mutants: 16, violations: 0
}

// The terminal can reconstruct the whole port-numbered topology.
func ExampleExtractTopology() {
	net, err := anonnet.ScenarioNetwork("ring:n=3")
	if err != nil {
		log.Fatal(err)
	}
	topo, _, err := anonnet.ExtractTopology(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(topo.Vertices), "vertices,", len(topo.Edges), "edges recovered")
	// Output:
	// 5 vertices, 7 edges recovered
}
