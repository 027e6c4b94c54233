package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	anonnet "repro"
)

// baseRequest is the reference point of the key-completeness fence: a valid
// request exercising the shard engine (so Shards is live) with a timeline
// (so TimelineEvery is live).
func baseRequest() anonnet.Request {
	return anonnet.Request{
		Op:        "broadcast",
		Scenario:  "torus:w=4,h=4,seed=1",
		Message:   "hello",
		Engine:    "shard",
		Scheduler: "random",
		Seed:      1,
		Timeline:  true,
	}
}

func mustKey(t *testing.T, req anonnet.Request) Key {
	t.Helper()
	k, err := KeyOf(&req, Limits{})
	if err != nil {
		t.Fatalf("KeyOf(%+v): %v", req, err)
	}
	return k
}

// TestKeyCompleteness is the property fence of the verdict cache: every
// field of anonnet.Request must, when mutated to a different valid value,
// move the cache key — otherwise two requests demanding different responses
// would collide on one cache entry. The mutator table is checked against
// the Request struct by reflection, so adding a request field without
// deciding its key behavior fails this test, not production.
func TestKeyCompleteness(t *testing.T) {
	mutators := map[string]func(*anonnet.Request){
		"Op": func(r *anonnet.Request) { r.Op = "labels"; r.Message = "" },
		"Scenario": func(r *anonnet.Request) {
			r.Scenario = "torus:w=5,h=4,seed=1"
		},
		"Network": func(r *anonnet.Request) {
			// Switch to an embedded network (a different graph than the
			// base scenario's torus).
			net, err := anonnet.ScenarioNetwork("regular:n=12,d=3,seed=2")
			if err != nil {
				t.Fatal(err)
			}
			r.Scenario = ""
			r.Network = string(net.MarshalText())
		},
		"Message":       func(r *anonnet.Request) { r.Message = "other" },
		"Protocol":      func(r *anonnet.Request) { r.Protocol = "general" },
		"Engine":        func(r *anonnet.Request) { r.Engine = "sync"; r.Scheduler = "" },
		"Scheduler":     func(r *anonnet.Request) { r.Scheduler = "lifo" },
		"Seed":          func(r *anonnet.Request) { r.Seed = 2 },
		"Shards":        func(r *anonnet.Request) { r.Shards = 2 },
		"MaxSteps":      func(r *anonnet.Request) { r.MaxSteps = 500 },
		"Faults":        func(r *anonnet.Request) { r.Faults = "drop=0:1" },
		"Alphabet":      func(r *anonnet.Request) { r.Alphabet = true },
		"Timeline":      func(r *anonnet.Request) { r.Timeline = false },
		"TimelineEvery": func(r *anonnet.Request) { r.TimelineEvery = 7 },
	}
	// Fields whose every non-zero value is refused at admission need no key
	// representation — no admitted request carries them. The fence instead
	// demands KeyOf reject the field with the stated code, so silently
	// ignoring it (a cache-collision bug) still fails here.
	rejected := map[string]struct {
		mut  func(*anonnet.Request)
		code string
	}{
		"Chaos": {func(r *anonnet.Request) { r.Chaos = "disconnect=3" }, CodeChaosNotServable},
	}

	rt := reflect.TypeOf(anonnet.Request{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if rej, ok := rejected[name]; ok {
			t.Run(name, func(t *testing.T) {
				req := baseRequest()
				rej.mut(&req)
				_, err := KeyOf(&req, Limits{})
				if err == nil {
					t.Fatalf("KeyOf admitted a request with %s set — the field is neither keyed nor rejected", name)
				}
				if err.Code != rej.code {
					t.Fatalf("code = %s (%s), want %s", err.Code, err.Message, rej.code)
				}
			})
			continue
		}
		mut, ok := mutators[name]
		if !ok {
			t.Errorf("Request field %s has no key mutator — every request field must be represented in the cache key (or explicitly decided here)", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			base := baseRequest()
			baseKey := mustKey(t, base)
			mutated := baseRequest()
			mut(&mutated)
			if got := mustKey(t, mutated); got == baseKey {
				t.Fatalf("mutating %s did not change the cache key:\n base    %s\n mutated %s", name, baseKey, got)
			}
		})
	}
	for name := range mutators {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("mutator %s names no Request field — stale fence entry", name)
		}
	}
	for name := range rejected {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("rejected-field entry %s names no Request field — stale fence entry", name)
		}
	}
}

// TestKeyFaultTerms pushes the fence into the fault plan: every effective
// fault term — static (drop edge/count, loss rate, loss seed, crash
// vertex/quota) and churn (recover, cut, join, lossat) — must move the key
// on its own.
func TestKeyFaultTerms(t *testing.T) {
	withFaults := func(spec string) anonnet.Request {
		r := baseRequest()
		r.Faults = spec
		return r
	}
	base := mustKey(t, withFaults("drop=0:1,loss=10,seed=3,crash=1:2"))
	for name, spec := range map[string]string{
		"drop-edge":   "drop=2:1,loss=10,seed=3,crash=1:2",
		"drop-count":  "drop=0:4,loss=10,seed=3,crash=1:2",
		"loss-rate":   "drop=0:1,loss=20,seed=3,crash=1:2",
		"loss-seed":   "drop=0:1,loss=10,seed=4,crash=1:2",
		"crash-node":  "drop=0:1,loss=10,seed=3,crash=2:2",
		"crash-quota": "drop=0:1,loss=10,seed=3,crash=1:5",
		"no-faults":   "",
	} {
		if got := mustKey(t, withFaults(spec)); got == base {
			t.Errorf("fault mutation %s (%q) did not change the cache key", name, spec)
		}
	}

	// The churn terms, each against a base that carries every term so a
	// dropped-term bug cannot hide: both the term's presence and each of its
	// two parameters must key. Two vertices crash so the recovery target can
	// move (a recover term is only valid for a crashing vertex).
	churnBase := mustKey(t, withFaults("crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=2:1,lossat=5:50,seed=3"))
	for name, spec := range map[string]string{
		"recover-node":   "crash=1:2,crash=2:2,recover=2:4,cut=0:1,join=2:1,lossat=5:50,seed=3",
		"recover-count":  "crash=1:2,crash=2:2,recover=1:6,cut=0:1,join=2:1,lossat=5:50,seed=3",
		"recover-absent": "crash=1:2,crash=2:2,cut=0:1,join=2:1,lossat=5:50,seed=3",
		"cut-edge":       "crash=1:2,crash=2:2,recover=1:4,cut=3:1,join=2:1,lossat=5:50,seed=3",
		"cut-count":      "crash=1:2,crash=2:2,recover=1:4,cut=0:2,join=2:1,lossat=5:50,seed=3",
		"cut-absent":     "crash=1:2,crash=2:2,recover=1:4,join=2:1,lossat=5:50,seed=3",
		"join-edge":      "crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=3:1,lossat=5:50,seed=3",
		"join-count":     "crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=2:2,lossat=5:50,seed=3",
		"join-absent":    "crash=1:2,crash=2:2,recover=1:4,cut=0:1,lossat=5:50,seed=3",
		"lossat-send":    "crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=2:1,lossat=9:50,seed=3",
		"lossat-rate":    "crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=2:1,lossat=5:80,seed=3",
		"lossat-absent":  "crash=1:2,crash=2:2,recover=1:4,cut=0:1,join=2:1,seed=3",
	} {
		if got := mustKey(t, withFaults(spec)); got == churnBase {
			t.Errorf("churn mutation %s (%q) did not change the cache key", name, spec)
		}
	}
}

// TestKeyFaultCanonicalization: equivalent spellings of one fault plan
// share a key, and the loss seed drops out when there is no loss for it to
// drive.
func TestKeyFaultCanonicalization(t *testing.T) {
	withFaults := func(spec string) anonnet.Request {
		r := baseRequest()
		r.Faults = spec
		return r
	}
	if a, b := mustKey(t, withFaults("loss=10,drop=0:1,seed=3")), mustKey(t, withFaults("drop=0:1,seed=3,loss=10")); a != b {
		t.Errorf("reordered fault spellings got distinct keys:\n %s\n %s", a, b)
	}
	if a, b := mustKey(t, withFaults("drop=0:1,seed=3")), mustKey(t, withFaults("drop=0:1,seed=9")); a != b {
		t.Errorf("loss seed without loss moved the key: %s vs %s", a, b)
	}
}

// TestKeyNormalization: zero-value request fields and their explicit
// defaults are the same cache entry, and a scenario spec keys identically
// to its own serialized network — the two spellings of one concrete graph.
func TestKeyNormalization(t *testing.T) {
	implicit := anonnet.Request{Scenario: "torus:w=4,h=4,seed=1"}
	explicit := anonnet.Request{
		Op: "broadcast", Scenario: "torus:w=4,h=4,seed=1",
		Protocol: "auto", Engine: "seq", Scheduler: "fifo",
	}
	if a, b := mustKey(t, implicit), mustKey(t, explicit); a != b {
		t.Errorf("defaults and explicit defaults got distinct keys:\n %s\n %s", a, b)
	}

	// The sync engine always runs the fifo schedule, so the scheduler a
	// sync request names is one execution and one entry.
	syncFIFO := anonnet.Request{Scenario: "torus:w=4,h=4,seed=1", Engine: "sync", Scheduler: "fifo"}
	syncLIFO := anonnet.Request{Scenario: "torus:w=4,h=4,seed=1", Engine: "sync", Scheduler: "lifo"}
	if a, b := mustKey(t, syncFIFO), mustKey(t, syncLIFO); a != b {
		t.Errorf("sync under fifo and under lifo got distinct keys:\n %s\n %s", a, b)
	}

	net, err := anonnet.ScenarioNetwork("torus:w=4,h=4,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	byText := anonnet.Request{Network: string(net.MarshalText())}
	if a, b := mustKey(t, implicit), mustKey(t, byText); a != b {
		t.Errorf("scenario spec and its serialized network got distinct keys:\n %s\n %s", a, b)
	}
}

// TestKeyRejections: KeyOf's typed refusals carry the right codes.
func TestKeyRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*anonnet.Request)
		code string
	}{
		{"unknown-op", func(r *anonnet.Request) { r.Op = "divine" }, CodeBadOp},
		{"unknown-protocol", func(r *anonnet.Request) { r.Protocol = "carrier-pigeon" }, CodeUnknownProtocol},
		{"unknown-engine", func(r *anonnet.Request) { r.Engine = "warp" }, CodeUnknownEngine},
		{"wild-engine", func(r *anonnet.Request) { r.Engine = "concurrent" }, CodeEngineNotServable},
		{"unknown-scheduler", func(r *anonnet.Request) { r.Scheduler = "chaos" }, CodeUnknownScheduler},
		{"unknown-scheduler-on-sync", func(r *anonnet.Request) { r.Engine = "sync"; r.Scheduler = "chaos" }, CodeUnknownScheduler},
		{"negative-shards", func(r *anonnet.Request) { r.Shards = -1 }, CodeBadRequest},
		{"bad-faults", func(r *anonnet.Request) { r.Faults = "drop=999:1" }, CodeBadFaults},
		{"chaos", func(r *anonnet.Request) { r.Chaos = "disconnect=3,loss=10" }, CodeChaosNotServable},
		{"fault-suffix-in-scenario", func(r *anonnet.Request) { r.Scenario = "torus:w=4,h=4@drop=0:1" }, CodeBadScenario},
		{"no-graph", func(r *anonnet.Request) { r.Scenario = "" }, CodeBadRequest},
		{"both-graphs", func(r *anonnet.Request) { r.Network = "anonnet v1\nvertices 3 root 0 terminal 2\n" }, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := baseRequest()
			tc.mut(&req)
			_, err := KeyOf(&req, Limits{})
			if err == nil {
				t.Fatalf("KeyOf accepted %+v", req)
			}
			if err.Code != tc.code {
				t.Fatalf("code = %s (%s), want %s", err.Code, err.Message, tc.code)
			}
		})
	}
	// The vertex bound comes from Limits, not the request.
	req := baseRequest()
	_, err := KeyOf(&req, Limits{MaxVertices: 4})
	if err == nil || err.Code != CodeNetworkTooLarge {
		t.Fatalf("oversized network: err = %v, want %s", err, CodeNetworkTooLarge)
	}
	if !strings.Contains(err.Message, "vertices") {
		t.Fatalf("oversized message %q does not say how", err.Message)
	}
}

// TestScenarioKeysPinned pins the cache key of one spec per family that
// predates the registry's generator families: the registry's growth must
// not move a cached verdict of an existing spec. The network's two hashes
// are pinned on their own as well, so a change of the key's rendering,
// which moves every digest, still cannot move a network's identity.
func TestScenarioKeysPinned(t *testing.T) {
	for spec, want := range map[string]struct{ digest, fp, sum string }{
		"layereddag:layers=3,width=4,fanout=2,seed=5": {"a0d325ef230bb993", "b8b9d3a2868ec8e3", "52ebafb54f3ef257"},
		"regular:n=12,d=3,seed=2":                     {"79544a541fc34481", "59d30034447de780", "6aff6a1776fe1f4c"},
		"scalefree:n=20,m=2,seed=7":                   {"e89f16caea0c91d3", "f3dcb2383e6d96ca", "68e2c4ea35928172"},
		"smallworld:n=16,k=3,p=30,seed=4":             {"6f5d221c2d565d9f", "9bfdc509fd3d889b", "3a76774c5fc34785"},
		"torus:w=4,h=4,seed=1":                        {"e412348016776337", "0f958760c01993a8", "dc068b343383ae3d"},
	} {
		k := mustKey(t, anonnet.Request{Scenario: spec})
		if got := k.Digest(); got != want.digest {
			t.Errorf("%s: key digest %s, pinned %s", spec, got, want.digest)
		}
		if got := fmt.Sprintf("%016x", k.GraphFP); got != want.fp {
			t.Errorf("%s: GraphFP %s, pinned %s", spec, got, want.fp)
		}
		if got := fmt.Sprintf("%016x", k.GraphSum); got != want.sum {
			t.Errorf("%s: GraphSum %s, pinned %s", spec, got, want.sum)
		}
	}
}
