package scenario

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// FaultPlan is the scenario-level fault description, generalizing the
// engines' DropFirst shorthand: per-edge drop counts, a seeded Bernoulli
// loss rate, and vertex crash-stops. Compile turns it into the sim layer's
// deterministic fault mechanism (sim.Faults), so a plan composes with
// replay, shrinking and the schedule fuzzer: the fate of the k-th message on
// an edge is fixed regardless of schedule or engine.
type FaultPlan struct {
	// DropFirst[e] = k drops the first k messages sent on edge e.
	DropFirst map[graph.EdgeID]int
	// LossPct, in [0, 100], drops each remaining message with this percent
	// probability, decided by a seeded hash per (edge, send index).
	LossPct int
	// Seed drives the Bernoulli loss decisions.
	Seed int64
	// CrashAfter[v] = k crash-stops vertex v after it processed k
	// deliveries (k = 0: down from the start).
	CrashAfter map[graph.VertexID]int
	// RecoverAfter[v] = k makes v's crash transient: deliveries
	// CrashAfter[v]+1..k are consumed while v is down, delivery k+1
	// resumes processing with v's pre-crash state. Needs a CrashAfter
	// entry with CrashAfter[v] <= k.
	RecoverAfter map[graph.VertexID]int
	// JoinAfter[e] = k adds edge e only after k send attempts on it
	// (earlier sends are lost — the edge did not exist yet).
	JoinAfter map[graph.EdgeID]int
	// CutAfter[e] = k removes edge e after k sends on it (later sends are
	// lost). With a JoinAfter entry, JoinAfter[e] < CutAfter[e] must hold.
	CutAfter map[graph.EdgeID]int
	// LossSteps is an adversarial loss schedule: at per-edge send index
	// AfterSend the loss rate becomes Pct percent, replacing LossPct and
	// any earlier step. Triggers must strictly ascend.
	LossSteps []LossStep
}

// LossStep is one trigger point of an adversarial loss schedule.
type LossStep struct {
	// AfterSend is the per-edge send index the step fires at.
	AfterSend int
	// Pct is the Bernoulli loss percentage, in [0, 100], from then on.
	Pct int
}

// Empty reports whether the plan injects no faults.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.DropFirst) == 0 && p.LossPct == 0 && len(p.CrashAfter) == 0 &&
		len(p.RecoverAfter) == 0 && len(p.JoinAfter) == 0 && len(p.CutAfter) == 0 &&
		len(p.LossSteps) == 0)
}

// effective returns p without the terms that cannot change a run: drop
// counts of zero, and the seed when no loss is configured. Compile and
// Canonical both start from it, so a spec and its canonical form compile
// alike.
func (p *FaultPlan) effective() *FaultPlan {
	if p == nil {
		return nil
	}
	q := *p
	q.DropFirst = maps.Clone(p.DropFirst)
	maps.DeleteFunc(q.DropFirst, func(_ graph.EdgeID, k int) bool { return k == 0 })
	if len(q.DropFirst) == 0 {
		q.DropFirst = nil
	}
	if q.LossPct == 0 && len(q.LossSteps) == 0 {
		q.Seed = 0
	}
	return &q
}

// Compile validates the plan against g and lowers it to the sim layer's
// fault mechanism. A plan without effective terms compiles to nil
// (fault-free run).
func (p *FaultPlan) Compile(g *graph.G) (*sim.Faults, error) {
	if p = p.effective(); p.Empty() {
		return nil, nil
	}
	if p.LossPct < 0 || p.LossPct > 100 {
		return nil, fmt.Errorf("scenario: loss percentage %d outside [0, 100]", p.LossPct)
	}
	nE, nV := g.NumEdges(), g.NumVertices()
	for e, k := range p.DropFirst {
		if int(e) < 0 || int(e) >= nE {
			return nil, fmt.Errorf("scenario: fault plan drops on edge %d, graph %s has %d edges", e, g, nE)
		}
		if k < 0 {
			return nil, fmt.Errorf("scenario: negative drop count %d on edge %d", k, e)
		}
	}
	for v, k := range p.CrashAfter {
		if int(v) < 0 || int(v) >= nV {
			return nil, fmt.Errorf("scenario: fault plan crashes vertex %d, graph %s has %d vertices", v, g, nV)
		}
		if k < 0 {
			return nil, fmt.Errorf("scenario: negative crash quota %d on vertex %d", k, v)
		}
	}
	for v, k := range p.RecoverAfter {
		if int(v) < 0 || int(v) >= nV {
			return nil, fmt.Errorf("scenario: fault plan recovers vertex %d, graph %s has %d vertices", v, g, nV)
		}
		crash, ok := p.CrashAfter[v]
		if !ok {
			return nil, fmt.Errorf("scenario: recover=%d:%d needs a crash=%d:K term (recovery without a crash)", v, k, v)
		}
		if k < crash {
			return nil, fmt.Errorf("scenario: recover=%d:%d fires before crash=%d:%d", v, k, v, crash)
		}
	}
	for _, m := range []struct {
		win  map[graph.EdgeID]int
		term string
	}{{p.CutAfter, "cut"}, {p.JoinAfter, "join"}} {
		for e, k := range m.win {
			if int(e) < 0 || int(e) >= nE {
				return nil, fmt.Errorf("scenario: fault plan %ss edge %d, graph %s has %d edges", m.term, e, g, nE)
			}
			if k < 0 {
				return nil, fmt.Errorf("scenario: negative %s trigger %d on edge %d", m.term, k, e)
			}
		}
	}
	for e, j := range p.JoinAfter {
		if c, ok := p.CutAfter[e]; ok && j >= c {
			return nil, fmt.Errorf("scenario: edge %d joins at send %d but is cut at %d (empty up-window)", e, j, c)
		}
	}
	var steps []sim.LossStep
	prev := -1
	for i, s := range p.LossSteps {
		if s.Pct < 0 || s.Pct > 100 {
			return nil, fmt.Errorf("scenario: loss step %d percentage %d outside [0, 100]", i, s.Pct)
		}
		if s.AfterSend < 0 || s.AfterSend <= prev {
			return nil, fmt.Errorf("scenario: loss step triggers must strictly ascend (step %d at send %d, previous %d)", i, s.AfterSend, prev)
		}
		prev = s.AfterSend
		steps = append(steps, sim.LossStep{AfterSend: s.AfterSend, Rate: float64(s.Pct) / 100})
	}
	return &sim.Faults{
		DropFirst:    p.DropFirst,
		LossRate:     float64(p.LossPct) / 100,
		Seed:         p.Seed,
		CrashAfter:   p.CrashAfter,
		RecoverAfter: p.RecoverAfter,
		JoinAfter:    p.JoinAfter,
		CutAfter:     p.CutAfter,
		LossSteps:    steps,
	}, nil
}

// Canonical renders the plan back into ParseFaults syntax in a normal form:
// nonzero drop terms sorted by edge, then crash and recover sorted by
// vertex, then join and cut sorted by edge, then loss steps in spec order
// (Compile requires ascending triggers), then loss, then seed — with the
// seed omitted when no Bernoulli loss is configured anywhere (without loss
// the seed cannot affect any run). Two plans with the same effect on every
// run render identically, which is what lets the run server use the
// rendering as the fault component of its cache key: ParseFaults(Canonical)
// round-trips to an equivalent plan, and an empty plan renders as "".
func (p *FaultPlan) Canonical() string {
	if p = p.effective(); p.Empty() {
		return ""
	}
	var terms []string
	for _, e := range sortedKeys(p.DropFirst) {
		terms = append(terms, fmt.Sprintf("drop=%d:%d", e, p.DropFirst[graph.EdgeID(e)]))
	}
	for _, v := range sortedKeys(p.CrashAfter) {
		terms = append(terms, fmt.Sprintf("crash=%d:%d", v, p.CrashAfter[graph.VertexID(v)]))
	}
	for _, v := range sortedKeys(p.RecoverAfter) {
		terms = append(terms, fmt.Sprintf("recover=%d:%d", v, p.RecoverAfter[graph.VertexID(v)]))
	}
	for _, e := range sortedKeys(p.JoinAfter) {
		terms = append(terms, fmt.Sprintf("join=%d:%d", e, p.JoinAfter[graph.EdgeID(e)]))
	}
	for _, e := range sortedKeys(p.CutAfter) {
		terms = append(terms, fmt.Sprintf("cut=%d:%d", e, p.CutAfter[graph.EdgeID(e)]))
	}
	for _, s := range p.LossSteps {
		terms = append(terms, fmt.Sprintf("lossat=%d:%d", s.AfterSend, s.Pct))
	}
	if p.LossPct != 0 {
		terms = append(terms, fmt.Sprintf("loss=%d", p.LossPct))
	}
	if p.LossPct != 0 || len(p.LossSteps) > 0 {
		terms = append(terms, fmt.Sprintf("seed=%d", p.Seed))
	}
	return strings.Join(terms, ",")
}

// sortedKeys returns m's keys as sorted ints.
func sortedKeys[K ~int](m map[K]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, int(k))
	}
	sort.Ints(out)
	return out
}

// FaultTerms lists the fault/churn spec vocabulary ParseFaults accepts —
// the source of truth the docs/SCENARIOS.md grammar table is drift-guarded
// against.
func FaultTerms() []string {
	return []string{"crash", "cut", "drop", "join", "loss", "lossat", "recover", "seed"}
}

// ParseFaults reads a fault/churn spec of the form
//
//	drop=EDGE:K,loss=PCT,crash=VERTEX:K,recover=VERTEX:K,cut=EDGE:K,join=EDGE:K,lossat=SEND:PCT,seed=N
//
// e.g. "drop=0:1" (drop the first message on edge 0), "loss=10,seed=7"
// (10% seeded Bernoulli loss), "crash=3:0" (vertex 3 down from the start),
// "crash=3:1,recover=3:4" (vertex 3 down for deliveries 2..4, back from
// delivery 5), "cut=2:3" (edge 2 removed after its 3rd send) or
// "lossat=5:40" (loss steps to 40% from each edge's 5th send on). drop=,
// crash=, recover=, cut=, join= and lossat= may repeat. An empty spec is
// the empty plan.
func ParseFaults(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, vs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("scenario: bad fault term %q in %q (want key=value)", part, spec)
		}
		switch k {
		case "drop":
			id, cnt, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad drop term %q: %w (want drop=EDGE:K)", vs, err)
			}
			if p.DropFirst == nil {
				p.DropFirst = make(map[graph.EdgeID]int)
			}
			p.DropFirst[graph.EdgeID(id)] += cnt
		case "crash":
			id, cnt, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad crash term %q: %w (want crash=VERTEX:K)", vs, err)
			}
			if p.CrashAfter == nil {
				p.CrashAfter = make(map[graph.VertexID]int)
			}
			p.CrashAfter[graph.VertexID(id)] = cnt
		case "recover":
			id, cnt, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad recover term %q: %w (want recover=VERTEX:K)", vs, err)
			}
			if p.RecoverAfter == nil {
				p.RecoverAfter = make(map[graph.VertexID]int)
			}
			p.RecoverAfter[graph.VertexID(id)] = cnt
		case "cut":
			id, cnt, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad cut term %q: %w (want cut=EDGE:K)", vs, err)
			}
			if p.CutAfter == nil {
				p.CutAfter = make(map[graph.EdgeID]int)
			}
			p.CutAfter[graph.EdgeID(id)] = cnt
		case "join":
			id, cnt, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad join term %q: %w (want join=EDGE:K)", vs, err)
			}
			if p.JoinAfter == nil {
				p.JoinAfter = make(map[graph.EdgeID]int)
			}
			p.JoinAfter[graph.EdgeID(id)] = cnt
		case "lossat":
			at, pct, err := parsePair(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad lossat term %q: %w (want lossat=SEND:PCT)", vs, err)
			}
			p.LossSteps = append(p.LossSteps, LossStep{AfterSend: at, Pct: pct})
		case "loss":
			pct, err := strconv.Atoi(vs)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad loss percentage %q", vs)
			}
			p.LossPct = pct
		case "seed":
			seed, err := strconv.ParseInt(vs, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad fault seed %q", vs)
			}
			p.Seed = seed
		default:
			return nil, fmt.Errorf("scenario: unknown fault term %q (have drop|loss|lossat|crash|recover|cut|join|seed)", k)
		}
	}
	return p, nil
}

// CompileSpec parses a fault/churn spec and compiles it against g in one
// step — the shared helper behind every CLI -faults flag. It returns the
// compiled sim plan (nil for an empty spec) plus the parsed plan for
// canonicalization.
func CompileSpec(spec string, g *graph.G) (*sim.Faults, *FaultPlan, error) {
	plan, err := ParseFaults(spec)
	if err != nil {
		return nil, nil, err
	}
	f, err := plan.Compile(g)
	if err != nil {
		return nil, nil, err
	}
	return f, plan, nil
}

func parsePair(s string) (int, int, error) {
	is, ks, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("missing ':'")
	}
	id, err := strconv.Atoi(is)
	if err != nil {
		return 0, 0, fmt.Errorf("bad id %q", is)
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return 0, 0, fmt.Errorf("bad count %q", ks)
	}
	return id, k, nil
}
