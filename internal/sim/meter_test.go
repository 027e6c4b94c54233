package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// oracle re-meters every send a run shows its Observer, in order, with a
// fresh interner. A run's reported metrics must equal it exactly, whether
// the engine metered inline or through its metering goroutine.
type oracle struct {
	in        *protocol.Interner
	messages  int
	totalBits int64
	maxBits   int
	edgeBits  []int64
	edgeMsgs  []int
	alphabet  map[string]int
	first     map[graph.EdgeID]string
}

// newOracle returns an oracle for g. One for a run that does not intern
// expects no Alphabet and no FirstSymbol.
func newOracle(g *graph.G, intern bool) *oracle {
	if !intern {
		return &oracle{edgeBits: make([]int64, g.NumEdges()), edgeMsgs: make([]int, g.NumEdges())}
	}
	return &oracle{
		in:       protocol.NewInterner(),
		edgeBits: make([]int64, g.NumEdges()),
		edgeMsgs: make([]int, g.NumEdges()),
		alphabet: map[string]int{},
		first:    map[graph.EdgeID]string{},
	}
}

func (o *oracle) OnSend(e graph.EdgeID, msg protocol.Message) {
	bits := msg.Bits()
	o.messages++
	o.totalBits += int64(bits)
	o.maxBits = max(o.maxBits, bits)
	o.edgeBits[e] += int64(bits)
	o.edgeMsgs[e]++
	if o.in == nil {
		return
	}
	key := o.in.KeyOf(o.in.Intern(msg))
	o.alphabet[key]++
	if _, ok := o.first[e]; !ok {
		o.first[e] = key
	}
}

func (o *oracle) OnDeliver(int, graph.EdgeID, protocol.Message) {}

func (o *oracle) check(t *testing.T, name string, m *sim.Metrics) {
	t.Helper()
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Messages", m.Messages, o.messages},
		{"TotalBits", m.TotalBits, o.totalBits},
		{"MaxMsgBits", m.MaxMsgBits, o.maxBits},
		{"PerEdgeBits", m.PerEdgeBits, o.edgeBits},
		{"PerEdgeMsgs", m.PerEdgeMsgs, o.edgeMsgs},
		{"Alphabet", m.Alphabet, o.alphabet},
		{"FirstSymbol", m.FirstSymbol, o.first},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s differs from the send-by-send oracle", name, c.field)
		}
	}
}

// meteredRun runs p on g with the oracle attached and full metering on.
func meteredRun(eng sim.Engine, g *graph.G, p protocol.Protocol, opts sim.Options) (*sim.Result, *oracle, error) {
	return metered(eng, g, p, opts, true)
}

// metered runs p on g with the oracle attached, interning symbols (both
// alphabet and first-symbol tracking on) or only counting sends.
func metered(eng sim.Engine, g *graph.G, p protocol.Protocol, opts sim.Options, intern bool) (*sim.Result, *oracle, error) {
	o := newOracle(g, intern)
	opts.Observer, opts.TrackAlphabet, opts.TrackFirstSymbol = o, intern, intern
	res, err := eng.Run(g, p, opts)
	return res, o, err
}

// settledGoroutines waits briefly for goroutines that are finishing to
// exit, and returns how many are left.
func settledGoroutines(limit int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPipelinedMeteringMatchesOracle runs registry families on both
// deterministic engines under three adversaries and three fault plans, and
// checks every metered quantity against the oracle. Runs that intern
// symbols meter on the metering goroutine from their first send, however
// few sends they make. Runs that only count sends, made under fifo, meter
// inline up to the threshold: the inputs are sized so that some stay under
// it and others cross it by several batches.
func TestPipelinedMeteringMatchesOracle(t *testing.T) {
	type input struct {
		spec  string
		proto protocol.Protocol
	}
	inputs := []input{
		{"torus:w=4,h=4", core.NewGeneralBroadcast(nil)},
		{"torus:w=8,h=8", core.NewGeneralBroadcast(nil)},
		{"scalefree:n=300,m=2,seed=3", core.NewGeneralBroadcast(nil)},
		{"layered:layers=12,width=8,seed=2", core.NewGeneralBroadcast(nil)},
		{"layered:layers=24,width=4,seed=3", core.NewGeneralBroadcast(nil)},
		{"randnet:n=40,extra=40,seed=4", core.NewLabelAssign(nil)},
		{"randnet:n=100,extra=100,seed=6", core.NewLabelAssign(nil)},
		{"randtree:n=4000,seed=5", core.NewTreeBroadcast(nil, core.RulePow2)},
		{"torus:w=7,h=6", core.NewMapExtract(nil)},
	}
	plans := []string{"", "loss=3,seed=2", "crash=%[1]d:1,recover=%[1]d:3,cut=%[2]d:2,join=%[3]d:1"}
	engines := []sim.Engine{sim.Sequential(), sim.Synchronous()}
	var under, over, countUnder, countOver int
	for _, in := range inputs {
		g, err := scenario.Parse(in.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range plans {
			spec := plan
			if strings.Contains(plan, "%") {
				spec = fmt.Sprintf(plan, g.NumVertices()/3, g.NumEdges()/2, g.NumEdges()/3)
			}
			faults, _, err := scenario.CompileSpec(spec, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range engines {
				for _, sched := range []string{"fifo", "random", "lifo"} {
					if eng.Name() == "sync" && sched != "fifo" {
						continue // one fixed schedule
					}
					s, err := sim.NewScheduler(sched)
					if err != nil {
						t.Fatal(err)
					}
					for _, intern := range []bool{true, false} {
						if !intern && sched != "fifo" {
							continue
						}
						name := fmt.Sprintf("%s/%s/%q/%s/intern=%v", in.spec, eng.Name(), spec, sched, intern)
						sim.TookPipe()
						res, o, err := metered(eng, g, in.proto, sim.Options{Scheduler: s, Seed: 7, Faults: faults}, intern)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						o.check(t, name, &res.Metrics)
						n := res.Metrics.Messages
						if want := intern || n > sim.MeterInline; sim.TookPipe() != want {
							t.Errorf("%s: %d sends metered on a goroutine: %v, want %v", name, n, !want, want)
						}
						switch {
						case n <= sim.MeterInline && intern:
							under++
						case n <= sim.MeterInline:
							countUnder++
						case n >= sim.MeterInline+4*sim.MeterBatch && intern:
							over++
						case n >= sim.MeterInline+4*sim.MeterBatch:
							countOver++
						}
					}
				}
			}
		}
	}
	if under < 10 || over < 10 {
		t.Fatalf("interning runs: %d under the threshold and %d past it by four batches; want at least 10 of each", under, over)
	}
	if countUnder < 5 || countOver < 5 {
		t.Fatalf("counting runs: %d under the threshold and %d past it by four batches; want at least 5 of each", countUnder, countOver)
	}
}

// TestMessagesCountSends pins what Messages counts: every send, so it is
// the deliveries plus the messages still queued at return plus the sends
// dropped at the link. Runs past the inline threshold also show that the
// metering goroutine is done when Run returns.
func TestMessagesCountSends(t *testing.T) {
	g, err := scenario.Parse("torus:w=4,h=4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, core.NewGeneralBroadcast(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 504 || res.Steps != 468 || sim.InFlight(res) != 36 {
		t.Fatalf("torus:w=4,h=4 random seed 5: Messages %d, Steps %d, queued %d; want 504, 468, 36",
			res.Metrics.Messages, res.Steps, sim.InFlight(res))
	}

	big, err := scenario.Parse("torus:w=8,h=8")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "loss=3,seed=1", "cut=40:1,join=41:2,drop=7:3"} {
		faults, _, err := scenario.CompileSpec(spec, big)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"fifo", "random", "lifo"} {
			s, err := sim.NewScheduler(sched)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(big, core.NewGeneralBroadcast(nil), sim.Options{Scheduler: s, Seed: 5, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics.Messages
			if want := res.Steps + sim.InFlight(res) + res.Dropped; m != want {
				t.Errorf("%q %s: Messages %d, want Steps %d + queued %d + dropped %d = %d",
					spec, sched, m, res.Steps, sim.InFlight(res), res.Dropped, want)
			}
			if m <= sim.MeterInline {
				t.Errorf("%q %s: %d sends do not cross the inline threshold", spec, sched, m)
			}
		}
	}
}

// failingProto wraps a protocol so that every non-terminal node fails its
// receipt after the run's first `after` receipts, by error or by panic.
type failingProto struct {
	protocol.Protocol
	after    int
	receipts *int
	panics   bool
}

func (p failingProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	n := p.Protocol.NewNode(inDeg, outDeg, role)
	if role == protocol.RoleTerminal {
		return n
	}
	return failingNode{n, p}
}

type failingNode struct {
	protocol.Node
	p failingProto
}

var errInjected = errors.New("injected receive failure")

func (n failingNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	if *n.p.receipts++; *n.p.receipts > n.p.after {
		if n.p.panics {
			panic(errInjected)
		}
		return nil, errInjected
	}
	return n.Node.Receive(msg, inPort)
}

// TestPipelinedMeteringClosesOnEveryExit ends runs past the inline
// threshold by the step limit, a receive error and a panic, on both
// deterministic engines: the metrics still match the oracle up to the exit,
// and no metering goroutine outlives Run.
func TestPipelinedMeteringClosesOnEveryExit(t *testing.T) {
	g, err := scenario.Parse("torus:w=8,h=8")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6000
	gc := core.NewGeneralBroadcast(nil)
	for _, eng := range []sim.Engine{sim.Sequential(), sim.Synchronous()} {
		for _, exit := range []string{"step limit", "receive error", "panic"} {
			name := eng.Name() + "/" + exit
			before := runtime.NumGoroutine()
			var (
				res *sim.Result
				o   *oracle
				err error
			)
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				switch exit {
				case "step limit":
					res, o, err = meteredRun(eng, g, gc, sim.Options{MaxSteps: steps})
				default:
					p := failingProto{Protocol: gc, after: steps, receipts: new(int), panics: exit == "panic"}
					res, o, err = meteredRun(eng, g, p, sim.Options{})
				}
			}()
			switch exit {
			case "step limit":
				if !errors.Is(err, sim.ErrStepLimit) {
					t.Fatalf("%s: err = %v, want the step limit", name, err)
				}
			case "receive error":
				if !errors.Is(err, errInjected) {
					t.Fatalf("%s: err = %v, want the injected failure", name, err)
				}
			case "panic":
				if err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
					t.Fatalf("%s: err = %v, want the injected panic", name, err)
				}
			}
			if res != nil {
				if res.Metrics.Messages <= sim.MeterInline+sim.MeterBatch {
					t.Fatalf("%s: %d sends do not cross the inline threshold", name, res.Metrics.Messages)
				}
				o.check(t, name, &res.Metrics)
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("%s: %d goroutines before Run, %d after", name, before, after)
			}
		}
	}
}

// boomMsg is a hop count whose Bits panics at hop `at`, so metering fails
// wherever that send is metered.
type boomMsg struct{ hops, at int }

var errBoom = errors.New("injected metering failure")

func (m boomMsg) Bits() int {
	if m.hops == m.at {
		panic(errBoom)
	}
	return 1
}

func (m boomMsg) Key() string { return fmt.Sprint(m.hops) }

// boomProto forwards the hop count along a line to the terminal.
type boomProto struct{ at int }

func (p boomProto) Name() string                     { return "boom" }
func (p boomProto) InitialMessage() protocol.Message { return boomMsg{at: p.at} }

func (p boomProto) NewNode(_, outDeg int, role protocol.Role) protocol.Node {
	if role == protocol.RoleTerminal {
		return &boomTerm{}
	}
	return boomNode(outDeg)
}

type boomNode int

func (n boomNode) Receive(msg protocol.Message, _ int) ([]protocol.Message, error) {
	m := msg.(boomMsg)
	outs := make([]protocol.Message, n)
	for j := range outs {
		outs[j] = boomMsg{m.hops + 1, m.at}
	}
	return outs, nil
}

type boomTerm struct{ done bool }

func (t *boomTerm) Receive(protocol.Message, int) ([]protocol.Message, error) {
	t.done = true
	return nil, nil
}
func (t *boomTerm) Done() bool  { return t.done }
func (t *boomTerm) Output() any { return nil }

// TestPipelinedMeteringReraisesPanics makes metering itself panic, inline
// (a counting run before the threshold) and on the metering goroutine
// (past it, or an interning run anywhere): either way Run panics on its
// caller's goroutine with the same value, so a caller that recovers a run's
// panics (the run server does) still can, and no goroutine is left behind.
func TestPipelinedMeteringReraisesPanics(t *testing.T) {
	g := graph.Line(3 * sim.MeterInline / 2)
	for _, eng := range []sim.Engine{sim.Sequential(), sim.Synchronous()} {
		for _, intern := range []bool{false, true} {
			for _, at := range []int{sim.MeterInline / 2, sim.MeterInline + sim.MeterBatch/2} {
				name := fmt.Sprintf("%s, intern=%v, panic at send %d", eng.Name(), intern, at)
				before := runtime.NumGoroutine()
				var got any
				func() {
					defer func() { got = recover() }()
					_, err := eng.Run(g, boomProto{at: at}, sim.Options{TrackAlphabet: intern})
					t.Errorf("%s: Run returned (err %v)", name, err)
				}()
				if got != errBoom {
					t.Errorf("%s: recovered %v, want %v", name, got, errBoom)
				}
				if after := settledGoroutines(before); after > before {
					t.Errorf("%s: %d goroutines before Run, %d after", name, before, after)
				}
			}
		}
	}
}
