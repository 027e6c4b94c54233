package anonnet

// One benchmark per experiment of the E-index (E1-E13). Each bench
// runs the experiment's representative workload under the Go benchmark
// harness and reports the paper's cost metrics as custom benchmark metrics
// (bits/op, messages/op, ...), so `go test -bench=. -benchmem` regenerates
// the quantitative picture of every theorem and figure. The full sweeps
// live in cmd/anonbench, which prints every table.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/netrun"
	"repro/internal/sim"
)

// BenchmarkE1TreeBroadcast: Theorem 3.1 — grounded-tree broadcast with the
// power-of-2 rule; total communication O(|E| log |E|) + |E||m|.
func BenchmarkE1TreeBroadcast(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		g := graph.RandomGroundedTree(n, 0.3, int64(n))
		p := core.NewTreeBroadcast(make([]byte, 8), core.RulePow2)
		b.Run(fmt.Sprintf("E=%d", g.NumEdges()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
			b.ReportMetric(float64(last.Metrics.Messages), "msgs")
			b.ReportMetric(float64(last.Metrics.MaxEdgeBits()), "bw-bits")
		})
	}
}

// BenchmarkE1bNaiveRule: the Section 3.1 ablation — the naive x/d rule on
// the same trees, whose values need Theta(depth) bits.
func BenchmarkE1bNaiveRule(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.RandomGroundedTree(n, 0.3, int64(n))
		p := core.NewTreeBroadcast(make([]byte, 8), core.RuleNaive)
		b.Run(fmt.Sprintf("E=%d", g.NumEdges()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
			b.ReportMetric(float64(last.Metrics.MaxEdgeBits()), "bw-bits")
		})
	}
}

// BenchmarkE2ChainAlphabet: Theorem 3.2 / Figure 5 — the chain G_n forces an
// Omega(n) alphabet; ours is exactly n.
func BenchmarkE2ChainAlphabet(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		g := graph.Chain(n)
		p := core.NewTreeBroadcast(nil, core.RulePow2)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{TrackAlphabet: true})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.AlphabetSize()), "symbols")
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
		})
	}
}

// BenchmarkE3DAGBroadcast: Section 3.3 — scalar-commodity broadcast on
// random DAGs; bandwidth O(|E|), one message per edge.
func BenchmarkE3DAGBroadcast(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.RandomDAG(n, n, int64(n))
		p := core.NewDAGBroadcast(nil)
		b.Run(fmt.Sprintf("E=%d", g.NumEdges()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
			b.ReportMetric(float64(last.Metrics.MaxEdgeBits()), "bw-bits")
		})
	}
}

// BenchmarkE4Skeleton: Theorem 3.8 / Figure 4 — all 2^n subset choices of
// the skeleton graph yield distinct w->t quantities.
func BenchmarkE4Skeleton(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last lowerbound.SkeletonResult
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.Skeleton(n)
				if err != nil {
					b.Fatal(err)
				}
				if res.DistinctQuantities != res.Subsets {
					b.Fatal("quantities collided")
				}
				last = res
			}
			b.ReportMetric(float64(last.DistinctQuantities), "quantities")
			b.ReportMetric(float64(last.MaxWEdgeBits), "w-edge-bits")
		})
	}
}

// BenchmarkE5GeneralBroadcast: Theorem 4.2 — interval-union broadcast on
// random cyclic digraphs.
func BenchmarkE5GeneralBroadcast(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := graph.RandomDigraph(n, int64(n), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		p := core.NewGeneralBroadcast(nil)
		b.Run(fmt.Sprintf("V=%d_E=%d", g.NumVertices(), g.NumEdges()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
			b.ReportMetric(float64(last.Metrics.Messages), "msgs")
		})
	}
}

// BenchmarkE6SymbolSize: Theorem 4.3 — maximal symbol size of the general
// protocol, bounded by O(|E| |V| log dout).
func BenchmarkE6SymbolSize(b *testing.B) {
	for _, n := range []int{32, 128} {
		g := graph.RandomDigraph(n, int64(3*n), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		p := core.NewGeneralBroadcast(nil)
		b.Run(fmt.Sprintf("V=%d", g.NumVertices()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.MaxMsgBits), "max-symbol-bits")
		})
	}
}

// BenchmarkE7Labeling: Theorem 5.1 — unique label assignment on cyclic
// digraphs; labels O(|V| log dout) bits.
func BenchmarkE7Labeling(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := graph.RandomDigraph(n, int64(n+7), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.15})
		p := core.NewLabelAssign(nil)
		b.Run(fmt.Sprintf("V=%d", g.NumVertices()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			maxBits := 0
			for _, node := range last.Nodes {
				if ln, ok := node.(core.Labeled); ok {
					if u, has := ln.Label(); has {
						if bits := u.Intervals()[0].EncodedBits(); bits > maxBits {
							maxBits = bits
						}
					}
				}
			}
			b.ReportMetric(float64(maxBits), "max-label-bits")
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
		})
	}
}

// BenchmarkE8PruneLabels: Theorem 5.2 / Figure 6 — deep-leaf label length on
// the pruned tree grows as Omega(h log d).
func BenchmarkE8PruneLabels(b *testing.B) {
	for _, h := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			var last lowerbound.PruneResult
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.Prune(h, 3, 1, true)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.LeafLabelBits), "leaf-label-bits")
		})
	}
}

// BenchmarkE9LinearCuts: Lemma 3.5 / Theorem 3.6 — exhaustive cut
// enumeration, surgery and snapshot checks on small grounded trees.
func BenchmarkE9LinearCuts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E9LinearCuts()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("no cut rows")
		}
	}
}

// BenchmarkE10Mapping: topology extraction on random cyclic networks.
func BenchmarkE10Mapping(b *testing.B) {
	for _, n := range []int{16, 48, 126} {
		g := graph.RandomDigraph(n, int64(n*13), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.2})
		p := core.NewMapExtract(nil)
		b.Run(fmt.Sprintf("V=%d", g.NumVertices()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			topo := last.Output.(*core.Topology)
			b.ReportMetric(float64(topo.NumEdges()), "edges-mapped")
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
		})
	}
}

// BenchmarkEngineComparison contrasts the in-memory runtimes on the same
// workload, all reached through the unified sim.Engine interface.
func BenchmarkEngineComparison(b *testing.B) {
	g := graph.LayeredDigraph(4, 4, 3)
	p := core.NewGeneralBroadcast(nil)
	for _, eng := range []sim.Engine{sim.Sequential(), sim.Concurrent(), sim.Synchronous()} {
		b.Run(eng.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(g, p, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerAdversaries100k runs the paper's grounded-tree broadcast
// on a 100k-vertex tree under every adversarial scheduler: the indexed
// pending-edge structure keeps each adversary's per-step cost at O(1) or
// O(log n), so the whole catalog stays within a small factor of fifo. The
// indexed-vs-seed comparison itself lives in internal/sim
// (BenchmarkPendingEdge100k), next to the preserved seed loop.
func BenchmarkSchedulerAdversaries100k(b *testing.B) {
	g := graph.RandomGroundedTree(100_000, 0.2, 1)
	p := core.NewTreeBroadcast(make([]byte, 8), core.RulePow2)
	for _, name := range sim.SchedulerNames() {
		b.Run(name, func(b *testing.B) {
			sched, err := sim.NewScheduler(name)
			if err != nil {
				b.Fatal(err)
			}
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, p, sim.Options{Scheduler: sched, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			b.ReportMetric(float64(last.Metrics.TotalBits), "bits")
			b.ReportMetric(float64(last.Steps), "steps")
		})
	}
}

// BenchmarkE11Rounds: the synchronous extension — round complexity of the
// general broadcast.
func BenchmarkE11Rounds(b *testing.B) {
	for _, n := range []int{32, 128} {
		g := graph.RandomDigraph(n, int64(n*5), graph.RandomDigraphOpts{ExtraEdges: 2 * n, TerminalFrac: 0.2})
		p := core.NewGeneralBroadcast(nil)
		b.Run(fmt.Sprintf("V=%d", g.NumVertices()), func(b *testing.B) {
			var last *sim.Result
			for i := 0; i < b.N; i++ {
				r, err := sim.RunSynchronous(g, p, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != sim.Terminated {
					b.Fatal("did not terminate")
				}
				last = r
			}
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkE12Ablation: literal vs repaired canonical partition.
func BenchmarkE12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E12Ablation(20)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("ablation rows missing")
		}
	}
}

// BenchmarkE13StateSize: the paper's per-vertex memory measure.
func BenchmarkE13StateSize(b *testing.B) {
	g := graph.RandomDigraph(64, 64, graph.RandomDigraphOpts{ExtraEdges: 64, TerminalFrac: 0.25})
	p := core.NewLabelAssign(nil)
	b.Run("labelcast/V=66", func(b *testing.B) {
		var last *sim.Result
		for i := 0; i < b.N; i++ {
			r, err := sim.Run(g, p, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		b.ReportMetric(float64(last.MaxStateBits()), "max-state-bits")
	})
}

// BenchmarkTCPRuntime: the general broadcast over real TCP sockets.
func BenchmarkTCPRuntime(b *testing.B) {
	g := graph.Ring(8)
	p := core.NewGeneralBroadcast(nil)
	for i := 0; i < b.N; i++ {
		r, err := netrun.Engine(core.Codec{}, netrun.Options{}).Run(g, p, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Verdict != sim.Terminated {
			b.Fatal("did not terminate")
		}
	}
}
