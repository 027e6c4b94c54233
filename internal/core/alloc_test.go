package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dyadic"
	"repro/internal/interval"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestIntervalProtocolAllocsPerDelivery bounds the heap allocations of the
// interval-union protocols on a hub-heavy graph, whole run included: setup,
// every Receive, every message key. The protocol state grows by deltas
// computed from the incoming message and the terminal accumulates in place,
// so a delivery costs a handful of allocations; rebuilding the accumulated
// unions on every receipt costs hundreds.
func TestIntervalProtocolAllocsPerDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: instrumentation allocates on its own")
	}
	const maxPerDelivery = 20
	g, err := scenario.Build("scalefree", map[string]int{"n": 200, "m": 3}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []protocol.Protocol{NewGeneralBroadcast([]byte("m")), NewLabelAssign(nil)} {
		t.Run(p.Name(), func(t *testing.T) {
			sched, err := sim.NewScheduler("random")
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{Scheduler: sched, Seed: 3, TrackAlphabet: true}
			var deliveries int
			allocs := testing.AllocsPerRun(5, func() {
				r, err := sim.Run(g, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					t.Fatalf("verdict %v, want terminated", r.Verdict)
				}
				deliveries = r.Steps
			})
			per := allocs / float64(deliveries)
			t.Logf("%.0f allocations over %d deliveries: %.2f per delivery", allocs, deliveries, per)
			if per > maxPerDelivery {
				t.Fatalf("%.2f allocations per delivery, want <= %d", per, maxPerDelivery)
			}
		})
	}
}

// TestGCMsgKeyMatchesTwoWriterComposition pins gcMsg.Key to the composition
// it replaced — each union rendered by its own bit writer, joined by '|' —
// because anontrace timelines and the Alphabet/FirstSymbol maps print keys.
func TestGCMsgKeyMatchesTwoWriterComposition(t *testing.T) {
	render := func(u interval.Union) string {
		var w bitio.Writer
		u.Encode(&w)
		return string(w.Bytes())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		m := gcMsg{alpha: randUnion(rng, 8, 40, 0), beta: randUnion(rng, 8, 40, 30)}
		if i%7 == 0 {
			m.beta = interval.EmptyUnion()
		}
		if got, want := m.Key(), render(m.alpha)+"|"+render(m.beta); got != want {
			t.Fatalf("Key(%s, %s) = %q, want %q", m.alpha, m.beta, got, want)
		}
		if got, want := m.alpha.Key(), render(m.alpha); got != want {
			t.Fatalf("Union.Key(%s) = %q, want %q", m.alpha, got, want)
		}
	}
}

func BenchmarkGCMsgKey(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := gcMsg{alpha: randUnion(rng, 3, 40, 0), beta: randUnion(rng, 3, 40, 0)}
	b.ReportAllocs()
	for b.Loop() {
		m.Key()
	}
}

// randUnion draws a union of up to n random intervals whose end points are
// multiples of 2^-bits scaled down by 2^-shift, so precisions reach
// bits+shift.
func randUnion(rng *rand.Rand, n int, bits, shift uint) interval.Union {
	den := uint64(1) << bits
	ivs := make([]interval.Interval, rng.Intn(n+1))
	for i := range ivs {
		a, b := rng.Uint64()%den, rng.Uint64()%(den+1)
		ivs[i] = interval.Interval{
			Lo: dyadic.FromFrac(min(a, b), bits).Shr(shift),
			Hi: dyadic.FromFrac(max(a, b), bits).Shr(shift),
		}
	}
	return interval.NewUnion(ivs...)
}

// TestTerminalStateDoesNotAlias shows that the terminal's in-place
// accumulators leak in neither direction: a message's unions may be written
// after delivery (they are values shared by every copy in flight), and the
// unions Output, AlphaSeen and BetaSeen return may be written by the caller,
// without changing what the terminal has seen.
func TestTerminalStateDoesNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	clobber := interval.Interval{Lo: dyadic.Pow2(3), Hi: dyadic.Pow2(2)}
	overwrite := func(u interval.Union) {
		for i := range u.Intervals() {
			u.Intervals()[i] = clobber
		}
	}
	term := &gcTerminal{}
	for i := 0; i < 200; i++ {
		m := gcMsg{alpha: randUnion(rng, 3, 20, 0), beta: randUnion(rng, 2, 20, 0)}
		if _, err := term.Receive(m, 0); err != nil {
			t.Fatal(err)
		}
		cover, alpha, beta := term.cover.Key(), term.alpha.Key(), term.beta.Key()
		overwrite(m.alpha)
		overwrite(m.beta)
		overwrite(term.Output().(interval.Union))
		overwrite(term.AlphaSeen())
		overwrite(term.BetaSeen())
		if term.cover.Key() != cover || term.alpha.Key() != alpha || term.beta.Key() != beta {
			t.Fatalf("receipt %d: a write outside the terminal changed its state", i)
		}
	}
}
