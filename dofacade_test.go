package anonnet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// runOutcome is everything a run hands back that the two entry-point
// forms must agree on: the report without its wall-clock phases, the
// deterministic timeline bytes, the op's output, and the error text.
type runOutcome struct {
	report   *Report
	timeline []byte
	labels   map[VertexID]string
	topology *Topology
	err      string
}

func outcomeOf(t *testing.T, rep *Report, labels map[VertexID]Label, topo *Topology, err error) runOutcome {
	t.Helper()
	var out runOutcome
	if err != nil {
		out.err = err.Error()
	}
	if rep != nil {
		cp := *rep
		if rep.Timeline != nil {
			tl, jerr := rep.Timeline.TimelineJSON()
			if jerr != nil {
				t.Fatal(jerr)
			}
			out.timeline = tl
		}
		cp.Timeline = nil
		out.report = &cp
	}
	if labels != nil {
		out.labels = make(map[VertexID]string, len(labels))
		for v, l := range labels {
			out.labels[v] = fmt.Sprintf("%s/%d", l, l.Bits)
		}
	}
	if topo != nil {
		out.topology = &Topology{Vertices: topo.Vertices, Edges: topo.Edges}
	}
	return out
}

// TestDoMatchesOptions pins that the declarative Request and the
// functional-option form are one run path: for every op, deterministic
// engine and request field, Do(req) and the matching entry point called
// with the equivalent options produce equal reports, byte-identical
// timelines, and equal labels or topologies (or the same error).
func TestDoMatchesOptions(t *testing.T) {
	const scen = "torus:w=3,h=3,seed=1"
	net, err := ScenarioNetwork(scen)
	if err != nil {
		t.Fatal(err)
	}
	const msg = "hello"

	variations := []struct {
		name string
		set  func(*Request)
		opts []Option
	}{
		{"defaults", func(*Request) {}, nil},
		{"random-seed", func(r *Request) { r.Scheduler, r.Seed = "random", 7 },
			[]Option{WithScheduler("random"), WithSeed(7)}},
		{"shards-3", func(r *Request) { r.Shards = 3 }, []Option{WithShards(3)}},
		{"max-steps", func(r *Request) { r.MaxSteps = 10 }, []Option{WithMaxSteps(10)}},
		{"faults", func(r *Request) { r.Faults = "loss=20,seed=3" }, []Option{WithFaults("loss=20,seed=3")}},
		{"alphabet", func(r *Request) { r.Alphabet = true }, []Option{WithAlphabetTracking()}},
		{"timeline-stride", func(r *Request) { r.Timeline, r.TimelineEvery = true, 5 }, []Option{WithObservability(5)}},
		{"protocol", func(r *Request) { r.Protocol = "general" }, []Option{WithProtocol(ProtoGeneral)}},
	}
	engines := []Engine{EngineSequential, EngineSynchronous, EngineSharded}

	for _, op := range Ops() {
		for _, eng := range engines {
			for i, v := range variations {
				// Alternate the network source so both resolutions are
				// covered: embedded network text vs an explicit Network, and
				// a scenario spec on both sides.
				byScenario := i%2 == 1
				name := fmt.Sprintf("%s/%s/%s", op, eng, v.name)
				t.Run(name, func(t *testing.T) {
					req := Request{Op: op, Message: msg, Engine: eng.String()}
					explicit := net
					opts := append([]Option{WithEngine(eng)}, v.opts...)
					if byScenario {
						req.Scenario = scen
						explicit = nil
						opts = append(opts, WithScenario(scen))
					} else {
						req.Network = string(net.MarshalText())
					}
					v.set(&req)
					got := doOutcome(t, req)
					want := optionOutcome(t, op, explicit, []byte(msg), opts)
					compareOutcomes(t, got, want)
				})
			}
		}
	}

	// Extra options override request fields, as the CLIs rely on.
	t.Run("extra-overrides-field", func(t *testing.T) {
		req := Request{Scenario: scen, Message: msg, Scheduler: "lifo", Seed: 3}
		res, err := Do(req, WithScheduler("random"))
		if err != nil {
			t.Fatal(err)
		}
		got := outcomeOf(t, res.Report, nil, nil, nil)
		want := optionOutcome(t, "broadcast", nil, []byte(msg),
			[]Option{WithScenario(scen), WithScheduler("random"), WithSeed(3)})
		compareOutcomes(t, got, want)
	})
}

func doOutcome(t *testing.T, req Request) runOutcome {
	t.Helper()
	res, err := Do(req)
	if res == nil {
		return outcomeOf(t, nil, nil, nil, err)
	}
	return outcomeOf(t, res.Report, res.Labels, res.Topology, err)
}

func optionOutcome(t *testing.T, op string, n *Network, m []byte, opts []Option) runOutcome {
	t.Helper()
	switch op {
	case "broadcast":
		rep, err := Broadcast(n, m, opts...)
		return outcomeOf(t, rep, nil, nil, err)
	case "labels":
		labels, rep, err := AssignLabels(n, opts...)
		return outcomeOf(t, rep, labels, nil, err)
	case "topology":
		topo, rep, err := ExtractTopology(n, opts...)
		return outcomeOf(t, rep, nil, topo, err)
	}
	t.Fatalf("unknown op %q", op)
	return runOutcome{}
}

func compareOutcomes(t *testing.T, got, want runOutcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("error: Do %q, options %q", got.err, want.err)
	}
	if !reflect.DeepEqual(got.report, want.report) {
		t.Fatalf("report:\n Do      %+v\n options %+v", got.report, want.report)
	}
	if !bytes.Equal(got.timeline, want.timeline) {
		t.Fatalf("timeline bytes differ:\n Do      %s\n options %s", got.timeline, want.timeline)
	}
	if !reflect.DeepEqual(got.labels, want.labels) {
		t.Fatalf("labels:\n Do      %v\n options %v", got.labels, want.labels)
	}
	if !reflect.DeepEqual(got.topology, want.topology) {
		t.Fatalf("topology:\n Do      %+v\n options %+v", got.topology, want.topology)
	}
}
