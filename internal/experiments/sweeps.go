package experiments

// Sweep is one registered experiment driver: a stable ID (the E-numbers of
// DESIGN.md/EXPERIMENTS.md) plus a closure that runs the full sweep and
// renders its table. The registry lives here — not in cmd/anonbench — so the
// CLI, the parallel matrix runner, and the benchmark tiers all draw from one
// list that cannot drift.
type Sweep struct {
	ID  string
	Run func() (*Table, error)
}

// Sweeps returns every experiment driver with its parameter sweep; quick
// selects the reduced smoke-test sweeps. Entries are independent of each
// other (each builds its own graphs and protocol state), so callers may run
// them concurrently as long as results are consumed in registry order.
func Sweeps(quick bool) []Sweep {
	e1Sizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	e1bDepths := []int{8, 16, 32, 64, 128, 256}
	e2Sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	e3Sizes := []int{16, 32, 64, 128, 256, 512}
	e4Sizes := []int{2, 4, 6, 8, 10, 12}
	e5Sizes := []int{8, 16, 32, 64, 128}
	e6Sizes := []int{8, 16, 32, 64, 128}
	e7Sizes := []int{8, 16, 32, 64, 128}
	e8Heights := []int{2, 4, 6, 8, 16, 32, 64, 128}
	e10Sizes := []int{8, 16, 32, 64, 128, 256, 512}
	e11Sizes := []int{8, 16, 32, 64}
	e12Graphs := 50
	if quick {
		e1Sizes = []int{16, 64, 256}
		e1bDepths = []int{8, 32}
		e2Sizes = []int{8, 64}
		e3Sizes = []int{16, 64}
		e4Sizes = []int{2, 5}
		e5Sizes = []int{8, 24}
		e6Sizes = []int{8, 24}
		e7Sizes = []int{8, 24}
		e8Heights = []int{2, 4, 16}
		e10Sizes = []int{8, 16}
		e11Sizes = []int{8, 16}
		e12Graphs = 10
	}
	return []Sweep{
		{"E1", func() (*Table, error) { return E1TreeBroadcast(e1Sizes, 8) }},
		{"E1b", func() (*Table, error) { return E1bNaiveVsPow2(e1bDepths) }},
		{"E2", func() (*Table, error) { return E2ChainAlphabet(e2Sizes) }},
		{"E3", func() (*Table, error) { return E3DAGBroadcast(e3Sizes) }},
		{"E4", func() (*Table, error) { return E4Skeleton(e4Sizes) }},
		{"E5", func() (*Table, error) { return E5GeneralBroadcast(e5Sizes) }},
		{"E6", func() (*Table, error) { return E6SymbolSize(e6Sizes) }},
		{"E7", func() (*Table, error) { return E7Labeling(e7Sizes) }},
		{"E8", func() (*Table, error) { return E8PruneLabels(e8Heights, 3) }},
		{"E9", E9LinearCuts},
		{"E10", func() (*Table, error) { return E10Mapping(e10Sizes) }},
		{"E11", func() (*Table, error) { return E11Rounds(e11Sizes) }},
		{"E12", func() (*Table, error) { return E12Ablation(e12Graphs) }},
		{"E13", func() (*Table, error) { return E13StateSize(e11Sizes) }},
	}
}
