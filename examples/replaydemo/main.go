// Replaydemo: pin an adversarial schedule and re-execute it exactly.
//
// The paper's guarantees are schedule-independent, so any interesting
// behavior found under a randomized adversary is only as valuable as your
// ability to reproduce it. This example records the delivery schedule of a
// broadcast under the heavy-tailed latency adversary, ships it through the
// binary codec (as a CI artifact or a committed regression case would be),
// reconstructs the network from the trace alone, and replays the run —
// verifying it lands on the identical outcome.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	net, err := anonnet.ScenarioNetwork("randnet:n=12,extra=16,seed=42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network:  %s\n", net)

	// Run under a seeded adversary, pinning the schedule as we go.
	var trace *anonnet.TraceData
	rep, err := anonnet.Broadcast(net, []byte("pinned!"),
		anonnet.WithScheduler("latency-pareto"),
		anonnet.WithSeed(7),
		anonnet.WithRecordTrace(&trace),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded: %s (%d delivery steps)\n", trace, rep.Steps)

	// The encoded bytes are the whole artifact: schedule, network,
	// protocol, scheduler and seed travel together.
	data := trace.Encode()
	fmt.Printf("encoded:  %d bytes\n", len(data))

	// A different process decodes the artifact and replays it — no
	// generator parameters, no scheduler configuration, just the file.
	decoded, err := anonnet.DecodeTrace(data)
	if err != nil {
		log.Fatal(err)
	}
	net2, err := decoded.Network()
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := anonnet.Broadcast(net2, []byte("pinned!"),
		anonnet.WithReplayTrace(decoded),
	)
	if err != nil {
		log.Fatal(err) // any divergence from the recording errors loudly
	}
	fmt.Printf("replayed: %d delivery steps, terminated=%v\n", rep2.Steps, rep2.Terminated)

	if rep2.Steps != rep.Steps || rep2.Messages != rep.Messages {
		log.Fatalf("replay diverged: %d/%d steps, %d/%d messages",
			rep2.Steps, rep.Steps, rep2.Messages, rep.Messages)
	}
	fmt.Println("schedule replayed exactly.")
}
