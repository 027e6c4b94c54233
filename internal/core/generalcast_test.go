package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dyadic"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func generalFamilies() []*graph.G {
	gs := []*graph.G{
		graph.Line(5),
		graph.Chain(6),
		graph.Ring(2), graph.Ring(5), graph.Ring(9),
		graph.KaryGroundedTree(2, 3),
		graph.Skeleton(3, []bool{true, true, false}),
		graph.LayeredDigraph(4, 3, 7),
		graph.LayeredDigraph(3, 5, 11),
	}
	for seed := int64(0); seed < 8; seed++ {
		gs = append(gs, graph.RandomDigraph(25, seed, graph.RandomDigraphOpts{ExtraEdges: 30, TerminalFrac: 0.15}))
	}
	return gs
}

func TestGeneralBroadcastTerminatesEverywhere(t *testing.T) {
	p := NewGeneralBroadcast([]byte("gc"))
	for _, g := range generalFamilies() {
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: verdict %s", g, r.Verdict)
		}
		// Theorem 4.2, the crucial direction: termination implies every
		// vertex received the broadcast.
		if !r.AllVisited() {
			t.Fatalf("%s: terminated without visiting all vertices", g)
		}
		out, ok := r.Output.(interval.Union)
		if !ok || !out.IsFull() {
			t.Fatalf("%s: terminal cover = %v, want [0,1)", g, r.Output)
		}
	}
}

func TestGeneralBroadcastNonTerminationWithOrphans(t *testing.T) {
	p := NewGeneralBroadcast(nil)
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomDigraph(20, seed, graph.RandomDigraphOpts{
			ExtraEdges: 20, Orphans: 1 + int(seed%3), TerminalFrac: 0.2,
		})
		r := runAllSchedules(t, g, p, sim.Options{})
		if r.Verdict != sim.Quiescent {
			t.Fatalf("%s: verdict %s, want quiescent (orphans present)", g, r.Verdict)
		}
	}
}

// TestGeneralBroadcastTerminationIffCoReachable is the headline property of
// Theorem 4.2 under randomized graphs and schedules.
func TestGeneralBroadcastTerminationIffCoReachable(t *testing.T) {
	p := NewGeneralBroadcast(nil)
	f := func(seed int64, orphRaw uint8) bool {
		orphans := int(orphRaw % 3) // 0, 1 or 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDigraph(5+rng.Intn(25), seed, graph.RandomDigraphOpts{
			ExtraEdges:   rng.Intn(40),
			Orphans:      orphans,
			TerminalFrac: rng.Float64() * 0.4,
		})
		r, err := sim.Run(g, p, sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			return false
		}
		want := sim.Quiescent
		if g.AllConnectedToTerminal() {
			want = sim.Terminated
		}
		return r.Verdict == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralNodeAlphasDisjoint(t *testing.T) {
	// Invariant: the alpha_j of every vertex are pairwise disjoint at all
	// times; we check the final states, which dominate all earlier ones by
	// state-monotonicity.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(30, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{Scheduler: sim.NewRandomScheduler(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for v, n := range r.Nodes {
			gn, ok := n.(*gcNode)
			if !ok {
				continue
			}
			alphas := gn.Alphas()
			for i := range alphas {
				for j := i + 1; j < len(alphas); j++ {
					if !alphas[i].Intersect(alphas[j]).IsEmpty() {
						t.Fatalf("%s vertex %d: alpha_%d and alpha_%d overlap", g, v, i, j)
					}
				}
			}
		}
	}
}

func TestGeneralBroadcastCycleUsesBeta(t *testing.T) {
	// On a ring, part of the interval must circulate and be rescued via
	// beta: the terminal must have received non-empty beta content.
	g := graph.Ring(6)
	r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != sim.Terminated {
		t.Fatalf("verdict %s", r.Verdict)
	}
	term := r.Nodes[g.Terminal()].(*gcTerminal)
	if term.BetaSeen().IsEmpty() {
		t.Fatal("ring run used no beta content; cycle detection untested")
	}
}

func TestGeneralBroadcastTreeNeedsNoBeta(t *testing.T) {
	// On grounded trees no cycle exists and no label is withheld: beta must
	// stay empty and the alpha cover alone must reach [0,1).
	g := graph.Chain(5)
	r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	term := r.Nodes[g.Terminal()].(*gcTerminal)
	if !term.BetaSeen().IsEmpty() {
		t.Fatalf("acyclic run produced beta content: %s", term.BetaSeen())
	}
	if !term.AlphaSeen().IsFull() {
		t.Fatalf("alpha cover = %s, want [0,1)", term.AlphaSeen())
	}
}

func TestGeneralSymbolSizeBounded(t *testing.T) {
	// Theorem 4.3: symbols are O(|E| |V| log dout) bits. Check a generous
	// concrete bound on random graphs: maxMsgBits <= c * |E| * |V| * log dout
	// with c small, and endpoint precision <= |V| * ceil(log2(dout+1)).
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(30, seed, graph.RandomDigraphOpts{ExtraEdges: 40, TerminalFrac: 0.2})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, e := g.NumVertices(), g.NumEdges()
		logD := 1
		for 1<<logD < g.MaxOutDegree()+1 {
			logD++
		}
		bound := 4 * e * v * logD
		if r.Metrics.MaxMsgBits > bound {
			t.Fatalf("%s: max symbol %d bits > bound %d", g, r.Metrics.MaxMsgBits, bound)
		}
		// Endpoint precision bound from the once-per-vertex splitting.
		for _, n := range r.Nodes {
			gn, ok := n.(*gcNode)
			if !ok {
				continue
			}
			for _, a := range gn.Alphas() {
				if int(a.MaxEndpointPrec()) > v*logD {
					t.Fatalf("%s: endpoint precision %d > |V| log dout = %d",
						g, a.MaxEndpointPrec(), v*logD)
				}
			}
		}
	}
}

func TestGeneralEveryEdgeCarriesFirstMessageWithAlpha(t *testing.T) {
	// The r == 1 partition substitution (docs/ARCHITECTURE.md, "Faithfulness
	// notes") guarantees every out-edge receives alpha content on the
	// sender's first firing; consequently on termination every edge carried
	// at least one message.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomDigraph(25, seed, graph.RandomDigraphOpts{ExtraEdges: 25, TerminalFrac: 0.25})
		r, err := sim.Run(g, NewGeneralBroadcast(nil), sim.Options{Scheduler: sim.NewLIFOScheduler()})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			t.Fatalf("%s: %s", g, r.Verdict)
		}
		for e, cnt := range r.Metrics.PerEdgeMsgs {
			if cnt == 0 {
				t.Fatalf("%s: edge %d carried no message", g, e)
			}
		}
	}
}

// AlphaSeen returns a copy of the alpha content received so far.
func (t *gcTerminal) AlphaSeen() interval.Union {
	t.merge()
	return t.alpha.Clone()
}

// BetaSeen returns a copy of the beta content received so far.
func (t *gcTerminal) BetaSeen() interval.Union {
	t.merge()
	return t.beta.Clone()
}

// terminalTap wraps a protocol and records the interval message of every
// receipt at its terminal, in delivery order: the message itself, or the
// labeling message a mapping message carries.
type terminalTap struct {
	protocol.Protocol
	got *[]*gcMsg
}

func (p terminalTap) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	n := p.Protocol.NewNode(inDeg, outDeg, role)
	if role != protocol.RoleTerminal {
		return n
	}
	return tapNode{Terminal: n.(protocol.Terminal), got: p.got}
}

type tapNode struct {
	protocol.Terminal
	got *[]*gcMsg
}

func (n tapNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	switch m := msg.(type) {
	case *gcMsg:
		*n.got = append(*n.got, m)
	case mapMsg:
		*n.got = append(*n.got, &m.gc)
	}
	return n.Terminal.Receive(msg, inPort)
}

// TestGCTerminalBoundIsExact feeds the terminal [0, 1/2), four slivers of
// 2^-55 and the rest of [0, 1). In floating point the slivers vanish into
// the running 1/2 and the lengths sum to 1 - 2^-53, so a terminal whose
// bound rounded would never merge and never be done. The staged bound must
// reach 1 exactly on the last arrival, and not before.
func TestGCTerminalBoundIsExact(t *testing.T) {
	half, sliver := dyadic.Pow2(1), dyadic.Pow2(55)
	ivs := []interval.Interval{{Lo: dyadic.Zero(), Hi: half}}
	lo := half
	for range 4 {
		ivs = append(ivs, interval.Interval{Lo: lo, Hi: lo.Add(sliver)})
		lo = lo.Add(sliver)
	}
	ivs = append(ivs, interval.Interval{Lo: lo, Hi: dyadic.One()})
	term := &gcTerminal{}
	for i, iv := range ivs {
		if _, err := term.Receive(&gcMsg{alpha: interval.NewUnion(iv)}, 0); err != nil {
			t.Fatal(err)
		}
		if last := i == len(ivs)-1; term.Done() != last {
			t.Fatalf("arrival %d of %d: Done %v", i, len(ivs), term.Done())
		}
	}
}

// TestGCTerminalMatchesEagerCover replays the receipts of real runs into
// the terminal and into an eager reference that keeps alpha, beta and
// cover = alpha ∪ beta from the first receipt on. The terminal stages
// arrivals and merges them only when its bound reaches 1, so it is checked
// twice: one copy is asked only Done after every receipt, which merges
// nothing, and is compared in full at the end; another is asked Done,
// Output and StateBits after every receipt. The runs cover general
// broadcast, label assignment and mapping (whose terminal keeps the
// labeling cover in the same type, checked as the run left it), on a DAG,
// on cyclic graphs, under a loss and a churn plan, and on deep graphs whose
// end points pass 64 fraction bits, where the terminal absorbs exactly.
func TestGCTerminalMatchesEagerCover(t *testing.T) {
	cases := []struct {
		name, spec, faults string
		dag, deep          bool
	}{
		{name: "dag", spec: "scalefree:n=120,m=3,seed=42", dag: true},
		{name: "torus", spec: "torus:w=8,h=8"},
		{name: "ring", spec: "ring:n=5"},
		{name: "randnet", spec: "randnet:n=8,extra=8,tfrac=30,seed=11"},
		{name: "loss", spec: "torus:w=5,h=5", faults: "loss=25,seed=9"},
		{name: "churn", spec: "torus:w=6,h=6", faults: "crash=12:1,recover=12:4,cut=30:2"},
		{name: "deepchain", spec: "chain:n=80", dag: true, deep: true},
		{name: "deeplayered", spec: "layered:layers=70,width=2,seed=1", deep: true},
	}
	for _, c := range cases {
		g, err := scenario.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := scenario.CompileSpec(c.faults, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []protocol.Protocol{NewGeneralBroadcast([]byte("m")), NewLabelAssign(nil), NewMapExtract(nil)} {
			t.Run(c.name+"/"+p.Name(), func(t *testing.T) {
				var got []*gcMsg
				sched, err := sim.NewScheduler("random")
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.Run(g, terminalTap{Protocol: p, got: &got}, sim.Options{Scheduler: sched, Seed: 3, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				if c.faults == "" && r.Verdict != sim.Terminated {
					t.Fatalf("verdict %v, want terminated", r.Verdict)
				}
				lazy, probed := &gcTerminal{}, &gcTerminal{}
				var alpha, beta, cover interval.Union
				merges, deepBeforeDone := 0, false
				for i, m := range got {
					staged := !lazy.exact
					for _, term := range []*gcTerminal{lazy, probed} {
						if _, err := term.Receive(m, 0); err != nil {
							t.Fatal(err)
						}
					}
					alpha, beta = alpha.Union(m.alpha), beta.Union(m.beta)
					cover = cover.Union(m.alpha).Union(m.beta)
					if staged && len(lazy.pendAlpha)+len(lazy.pendBeta) == 0 {
						merges++
					}
					deepBeforeDone = deepBeforeDone || !cover.IsFull() &&
						max(m.alpha.MaxEndpointPrec(), m.beta.MaxEndpointPrec()) > 64
					if lazy.Done() != cover.IsFull() || probed.Done() != cover.IsFull() {
						t.Fatalf("receipt %d: Done %v (probed %v), eager cover full %v", i, lazy.Done(), probed.Done(), cover.IsFull())
					}
					if out := probed.Output().(interval.Union); !out.Equal(cover) {
						t.Fatalf("receipt %d: Output %s, eager cover %s", i, out, cover)
					}
					if got, want := probed.StateBits(), unionsBits(alpha, beta, cover); got != want {
						t.Fatalf("receipt %d: StateBits %d, eager %d", i, got, want)
					}
				}
				want := unionsBits(alpha, beta, cover)
				if !lazy.AlphaSeen().Equal(alpha) || !lazy.BetaSeen().Equal(beta) ||
					!lazy.Output().(interval.Union).Equal(cover) || lazy.StateBits() != want {
					t.Fatal("after the last receipt the terminal's state differs from the eager reference")
				}
				if mt, ok := r.Nodes[g.Terminal()].(tapNode).Terminal.(*mapTerminal); ok {
					if !mt.gc.Output().(interval.Union).Equal(cover) || mt.gc.StateBits() != want {
						t.Fatal("the mapping terminal's labeling cover differs from the eager reference")
					}
				} else if lazy.Done() != (r.Verdict == sim.Terminated) {
					t.Fatalf("the recorded receipts leave the terminal done %v, verdict %v", lazy.Done(), r.Verdict)
				}
				if c.deep != deepBeforeDone {
					t.Fatalf("an end point past 64 fraction bits arrived before the cover was full: %v, want %v", deepBeforeDone, c.deep)
				}
				if c.faults != "" {
					return
				}
				built := !beta.IsEmpty()
				if wantBuilt := !c.dag || p.Name() != "generalcast"; built != wantBuilt {
					t.Fatalf("beta content arrived: %v, want %v", built, wantBuilt)
				}
				if c.dag && !c.deep && p.Name() == "generalcast" && merges != 1 {
					t.Fatalf("the terminal merged %d times on a DAG, want once", merges)
				}
			})
		}
	}
}
