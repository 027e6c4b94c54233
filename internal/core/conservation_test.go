package core

import (
	"math/big"
	"testing"

	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// conservationObserver checks the commodity-flow invariant of Section 3 at
// every instant of a grounded-tree run: since internal vertices forward
// exactly what they receive, the commodity in flight plus the commodity
// already absorbed by the terminal always equals the injected unit. The
// check fires at each delivery, i.e. at a quiet point of the event loop.
type conservationObserver struct {
	g        *graph.G
	inFlight dyadic.D
	atT      dyadic.D
	naiveIF  *big.Rat
	naiveT   *big.Rat
	fail     func(format string, args ...any)
}

var _ sim.Observer = (*conservationObserver)(nil)

func newConservationObserver(g *graph.G, fail func(string, ...any)) *conservationObserver {
	return &conservationObserver{
		g: g, fail: fail,
		naiveIF: new(big.Rat), naiveT: new(big.Rat),
	}
}

func (o *conservationObserver) value(msg protocol.Message) (dyadic.D, *big.Rat) {
	switch m := msg.(type) {
	case pow2Msg:
		return m.Value(), nil
	case dagMsg:
		return m.x, nil
	case naiveMsg:
		return dyadic.D{}, m.x
	default:
		o.fail("unexpected message type %T", msg)
		return dyadic.D{}, nil
	}
}

// OnSend implements sim.Observer.
func (o *conservationObserver) OnSend(_ graph.EdgeID, msg protocol.Message) {
	d, r := o.value(msg)
	if r != nil {
		o.naiveIF.Add(o.naiveIF, r)
		return
	}
	o.inFlight = o.inFlight.Add(d)
}

// OnDeliver implements sim.Observer.
func (o *conservationObserver) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	// Invariant check before the delivery is consumed: everything injected
	// is either still flying or already at t.
	d, r := o.value(msg)
	if r != nil {
		total := new(big.Rat).Add(o.naiveIF, o.naiveT)
		if total.Cmp(big.NewRat(1, 1)) != 0 {
			o.fail("step %d: naive conservation violated: in flight %s + at t %s != 1", step, o.naiveIF, o.naiveT)
		}
		o.naiveIF.Sub(o.naiveIF, r)
		if o.g.Edge(e).To == o.g.Terminal() {
			o.naiveT.Add(o.naiveT, r)
		}
		return
	}
	if !o.inFlight.Add(o.atT).IsOne() {
		o.fail("step %d: conservation violated: in flight %s + at t %s != 1", step, o.inFlight, o.atT)
	}
	o.inFlight = o.inFlight.Sub(d)
	if o.g.Edge(e).To == o.g.Terminal() {
		o.atT = o.atT.Add(d)
	}
}

func TestConservationAtEveryInstantPow2(t *testing.T) {
	for _, g := range groundedTreeFamilies() {
		for _, newSched := range []func() sim.Scheduler{sim.NewFIFOScheduler, sim.NewLIFOScheduler, sim.NewRandomScheduler} {
			sched := newSched()
			order := sched.Name()
			obs := newConservationObserver(g, t.Fatalf)
			r, err := sim.Run(g, NewTreeBroadcast(nil, RulePow2), sim.Options{
				Scheduler: sched, Seed: 99, Observer: obs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != sim.Terminated {
				t.Fatalf("%s order %s: %s", g, order, r.Verdict)
			}
			// At termination everything reached t.
			if !obs.atT.Add(obs.inFlight).IsOne() {
				t.Fatalf("%s: final accounting broken", g)
			}
		}
	}
}

func TestConservationAtEveryInstantNaive(t *testing.T) {
	g := graph.KaryGroundedTree(3, 3)
	obs := newConservationObserver(g, t.Fatalf)
	r, err := sim.Run(g, NewTreeBroadcast(nil, RuleNaive), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: 5, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
}

// dagConservationObserver extends the invariant to DAGs, where vertices park
// commodity until all in-edges have spoken: in-flight + parked + at-t == 1.
type dagConservationObserver struct {
	g        *graph.G
	inFlight dyadic.D
	parked   dyadic.D
	atT      dyadic.D
	heard    []int
	fail     func(format string, args ...any)
}

var _ sim.Observer = (*dagConservationObserver)(nil)

// OnSend implements sim.Observer. Sends drain the sender's parked commodity
// exactly when the sender fires (first out-port observed).
func (o *dagConservationObserver) OnSend(e graph.EdgeID, msg protocol.Message) {
	m := msg.(dagMsg)
	o.inFlight = o.inFlight.Add(m.x)
	from := o.g.Edge(e).From
	if from != o.g.Root() {
		// Firing: the parked sum leaves the vertex. Subtract each share as
		// it is sent; the parked total was the sum of all shares.
		o.parked = o.parked.Sub(m.x)
	}
}

// OnDeliver implements sim.Observer.
func (o *dagConservationObserver) OnDeliver(step int, e graph.EdgeID, msg protocol.Message) {
	m := msg.(dagMsg)
	total := o.inFlight.Add(o.parked).Add(o.atT)
	if !total.IsOne() {
		o.fail("step %d: DAG conservation violated: %s in flight + %s parked + %s at t != 1",
			step, o.inFlight, o.parked, o.atT)
	}
	o.inFlight = o.inFlight.Sub(m.x)
	to := o.g.Edge(e).To
	if to == o.g.Terminal() {
		o.atT = o.atT.Add(m.x)
	} else {
		o.parked = o.parked.Add(m.x)
	}
}

func TestConservationDAGWithParking(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.RandomDAG(30, 25, seed)
		obs := &dagConservationObserver{g: g, fail: t.Fatalf}
		r, err := sim.Run(g, NewDAGBroadcast(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		if !obs.atT.Add(obs.inFlight).Add(obs.parked).IsOne() {
			t.Fatalf("%s: final accounting broken", g)
		}
	}
}

// TestIntervalMeasureConservation checks the Section 4 analogue: the measure
// of (alpha content at t) + (in flight alpha) + (alpha parked in states) is
// harder to track externally, but a weaker global invariant holds: at
// termination the terminal's cover is exactly [0,1), never more.
func TestIntervalMeasureConservation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{ExtraEdges: 25, TerminalFrac: 0.25})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		term := r.Nodes[g.Terminal()].(*gcTerminal)
		cover := term.AlphaSeen().Union(term.BetaSeen())
		if !cover.IsFull() {
			t.Fatalf("%s: cover %s != [0,1)", g, cover)
		}
		if !cover.Measure().IsOne() {
			t.Fatalf("%s: measure %s != 1", g, cover.Measure())
		}
	}
}
