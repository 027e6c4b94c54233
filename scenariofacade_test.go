package anonnet

import (
	"errors"
	"testing"
)

// TestWithScenarioBuildsNetwork: a scenario spec replaces the explicit
// network, across engines, and equals the network ScenarioNetwork builds.
func TestWithScenarioBuildsNetwork(t *testing.T) {
	for _, engine := range []Engine{EngineSequential, EngineSharded} {
		rep, err := Broadcast(nil, []byte("hi"),
			WithScenario("torus:w=3,h=3"), WithEngine(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !rep.Terminated || !rep.AllReceived {
			t.Fatalf("%s: terminated=%v allReceived=%v", engine, rep.Terminated, rep.AllReceived)
		}
		if rep.Dropped != 0 {
			t.Fatalf("%s: %d messages dropped on a fault-free run", engine, rep.Dropped)
		}
	}

	n, err := ScenarioNetwork("torus:w=3,h=3")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() != 3*3+2 {
		t.Fatalf("torus 3x3: %d vertices", n.NumVertices())
	}

	fams := ScenarioFamilies()
	if len(fams) < 5 {
		t.Fatalf("scenario registry lists %d families: %v", len(fams), fams)
	}
}

// TestWithScenarioConflicts: ambiguous and malformed configurations error
// instead of guessing.
func TestWithScenarioConflicts(t *testing.T) {
	n := specNet("ring:n=4")
	if _, err := Broadcast(n, nil, WithScenario("torus")); err == nil {
		t.Fatal("explicit network plus WithScenario accepted")
	}
	if _, err := Broadcast(nil, nil); err == nil {
		t.Fatal("nil network without WithScenario accepted")
	}
	if _, err := Broadcast(nil, nil, WithScenario("warp:q=1")); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Broadcast(nil, nil,
		WithScenario("torus@loss=10"), WithFaults("loss=20")); err == nil {
		t.Fatal("two fault plans accepted")
	}
	if _, err := Broadcast(nil, nil, WithScenario("torus"), WithFaults("warp=1")); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}

// TestWithFaultsDropsTraffic: a fault plan changes the run the way the sim
// layer promises — dropping the root's injection leaves the network
// unreached and the run unterminated, with the cost on Report.Dropped —
// and the '@' suffix of WithScenario is equivalent to WithFaults.
func TestWithFaultsDropsTraffic(t *testing.T) {
	// Edge 0 is the root's only out-edge on every generated family; dropping
	// its first message leaves the whole network unreached.
	for _, opts := range [][]Option{
		{WithScenario("torus:w=3,h=3"), WithFaults("drop=0:1")},
		{WithScenario("torus:w=3,h=3@drop=0:1")},
	} {
		rep, err := Broadcast(nil, []byte("m"), opts...)
		if !errors.Is(err, ErrNotTerminated) {
			t.Fatalf("err = %v, want ErrNotTerminated", err)
		}
		if rep.AllReceived || rep.Dropped != 1 {
			t.Fatalf("allReceived=%v dropped=%d after dropping sigma0", rep.AllReceived, rep.Dropped)
		}
	}
}

// TestScenarioLabelAssignment: the protocol stack above the scenario layer
// works end to end — labels on a generated small-world network, fault-free,
// with Dropped zero.
func TestScenarioLabelAssignment(t *testing.T) {
	labels, rep, err := AssignLabels(nil, WithScenario("smallworld:n=8,k=2,p=10"))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 || rep.Dropped != 0 {
		t.Fatalf("labels=%d dropped=%d", len(labels), rep.Dropped)
	}
}
