package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// causalObserver checks the SerializedObserver stream contract from inside:
// delivery steps must be exactly 1,2,3,... in observation order, and no
// edge may deliver more messages than were observed sent on it (every send
// precedes its delivery in the linearization).
type causalObserver struct {
	t         *testing.T
	lastStep  int
	sent      map[graph.EdgeID]int
	delivered map[graph.EdgeID]int
}

func newCausalObserver(t *testing.T) *causalObserver {
	return &causalObserver{t: t, sent: map[graph.EdgeID]int{}, delivered: map[graph.EdgeID]int{}}
}

func (o *causalObserver) OnSend(e graph.EdgeID, _ protocol.Message) { o.sent[e]++ }

func (o *causalObserver) OnDeliver(step int, e graph.EdgeID, _ protocol.Message) {
	if step != o.lastStep+1 {
		o.t.Errorf("observed step %d after step %d; serialized stream must be monotone", step, o.lastStep)
	}
	o.lastStep = step
	o.delivered[e]++
	if o.delivered[e] > o.sent[e] {
		o.t.Errorf("edge %d: delivery %d observed with only %d sends", e, o.delivered[e], o.sent[e])
	}
}

// TestConcurrentObserverStreamContract pins the wild-capture stream
// guarantees on the concurrent engine: monotone 1-based step numbers and
// send-before-delivery per edge, across repeated genuinely different
// Go-runtime schedules.
func TestConcurrentObserverStreamContract(t *testing.T) {
	g := graph.Ring(6)
	for i := 0; i < 8; i++ {
		obs := newCausalObserver(t)
		// A high `need` keeps the terminal unsatisfied, so the run quiesces
		// after every message was delivered — the stream covers the run.
		r, err := Concurrent().Run(g, floodProto{need: 1 << 20}, Options{Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Quiescent {
			t.Fatalf("verdict %s, want quiescent", r.Verdict)
		}
		if obs.lastStep == 0 {
			t.Fatal("observer saw no deliveries")
		}
	}
}
