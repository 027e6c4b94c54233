package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestStarveOldestIsLIFOOnSeq checks that, on the sequential engine, the
// starve-oldest and lifo adversaries deliver in the same order. lifo's stack
// stays sorted by each edge's head-message send time (an edge popped and
// re-registered has a newer head than anything below it), so its top is the
// newest head, which is what starve-oldest's heap picks. The inputs are the
// committed trace corpus's graphs under their own protocols, and every
// registry family at matrix size under general broadcast.
func TestStarveOldestIsLIFOOnSeq(t *testing.T) {
	deliveries := func(t *testing.T, g *graph.G, newProto func() protocol.Protocol, schedName string) []graph.EdgeID {
		t.Helper()
		sched, err := sim.NewScheduler(schedName)
		if err != nil {
			t.Fatal(err)
		}
		rec := replay.NewRecorder()
		if _, err := sim.Sequential().Run(g, newProto(), sim.Options{Scheduler: sched, Observer: rec}); err != nil {
			t.Fatalf("%s: %v", schedName, err)
		}
		return rec.Trace(g, newProto().Name(), schedName, 0).Deliveries()
	}
	check := func(t *testing.T, g *graph.G, newProto func() protocol.Protocol) {
		t.Helper()
		lifo := deliveries(t, g, newProto, "lifo")
		starve := deliveries(t, g, newProto, "starve-oldest")
		if !slices.Equal(lifo, starve) {
			t.Errorf("on %s, lifo and starve-oldest deliver in different orders (%d and %d deliveries)",
				g, len(lifo), len(starve))
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "replay", "testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("trace corpus: %d files, err %v", len(files), err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := replay.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			g, err := tr.Graph()
			if err != nil {
				t.Fatal(err)
			}
			newProto, err := replay.ProtocolFactory(tr.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			check(t, g, newProto)
		})
	}

	general := func() protocol.Protocol { return core.NewGeneralBroadcast([]byte("m")) }
	for _, fam := range scenario.Families() {
		for _, seed := range []int64{1, 2} {
			g, err := scenario.Build(fam.Name, scenarioSizes[fam.Name], seed)
			if err != nil {
				t.Fatalf("build %s seed %d: %v", fam.Name, seed, err)
			}
			t.Run(fmt.Sprintf("%s/seed%d", fam.Name, seed), func(t *testing.T) { check(t, g, general) })
		}
	}
}
