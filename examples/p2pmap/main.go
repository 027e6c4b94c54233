// P2pmap: the peer-to-peer scenario from the paper's introduction. An
// overlay of anonymous peers with one-way connections (NAT'd peers can dial
// out but not be dialed) needs identities and a topology map before any
// conventional routing protocol can run. This example bootstraps both from
// nothing: unique labels via the Section 5 protocol, then a full
// port-numbered map of the overlay at the observer node.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro"
)

func main() {
	// A random cyclic overlay: 18 peers, ~40 one-way connections.
	net, err := anonnet.ScenarioNetwork("randnet:n=18,extra=22,seed=7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay: %d peers, %d one-way connections, cyclic: %v\n",
		net.NumVertices(), net.NumEdges(), net.Class() == anonnet.ClassGeneral)

	// Phase 1 — identities. No peer has an ID; after the protocol each owns
	// a unique sub-interval of [0,1).
	labels, rep, err := anonnet.AssignLabels(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphase 1: %d unique identities assigned (%d messages, %d bits)\n",
		len(labels), rep.Messages, rep.TotalBits)
	ids := make([]anonnet.VertexID, 0, len(labels))
	for v := range labels {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids[:5] {
		fmt.Printf("  peer %-3d -> %s (%d bits)\n", v, labels[v], labels[v].Bits)
	}
	fmt.Printf("  ... and %d more\n", len(ids)-5)

	// Phase 2 — the map. The observer reconstructs every peer and every
	// port-numbered connection.
	topo, mrep, err := anonnet.ExtractTopology(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphase 2: topology extracted at the observer: %d vertices, %d edges (%d messages)\n",
		len(topo.Vertices), len(topo.Edges), mrep.Messages)
	fmt.Printf("matches ground truth: %v\n",
		len(topo.Vertices) == net.NumVertices() && len(topo.Edges) == net.NumEdges())

	// A few recovered adjacencies, exactly as the observer sees them: by
	// label, with out-port and in-port numbers.
	fmt.Println("\nsample of the recovered map:")
	for _, e := range topo.Edges[:6] {
		fmt.Printf("  %s --port %d--> %s (in-port %d)\n", e.From, e.OutPort, e.To, e.InPort)
	}

	// Export the overlay with labels for visualization.
	f, err := os.CreateTemp("", "p2pmap-*.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	err = net.WriteDOT(f, func(v anonnet.VertexID) string {
		if l, ok := labels[v]; ok {
			return l.String()
		}
		return ""
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDOT export with labels: %s\n", f.Name())
}
