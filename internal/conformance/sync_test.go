package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// eventLog writes a run's sends and deliveries as text, one line each: a
// send's edge and message key, a delivery's step, edge and message key.
type eventLog struct{ sb strings.Builder }

func (l *eventLog) OnSend(e graph.EdgeID, m protocol.Message) {
	fmt.Fprintf(&l.sb, "s %d %q\n", e, m.Key())
}

func (l *eventLog) OnDeliver(step int, e graph.EdgeID, m protocol.Message) {
	fmt.Fprintf(&l.sb, "d %d %d %q\n", step, e, m.Key())
}

// syncTimelineDigests pins, per scenario family, one SHA-256 (first 16 hex
// digits) over the synchronous engine's Rounds and telemetry timeline
// (stride 4) across that family's cells of TestSynchronousIsFIFO. The
// sequential engine under fifo cannot see either, so this table is what
// holds the round clock and the per-round superstep rows in place.
var syncTimelineDigests = map[string]string{
	"chain":      "f6d5e2df9a193c20",
	"karytree":   "1a8775e5e7065d1f",
	"layered":    "3c74af7f13be9758",
	"layereddag": "9bd0e97d46f7aa11",
	"line":       "2f29291ed6f644de",
	"randdag":    "4dec0b799683aba1",
	"randnet":    "b8061f697b178391",
	"randtree":   "3b5457ce07854f7d",
	"regular":    "1355a5946d856a10",
	"ring":       "37236302672b89a2",
	"scalefree":  "a0a989331081e93a",
	"smallworld": "f053f8c332c96117",
	"torus":      "c083f834053a9e00",
}

// TestSynchronousIsFIFO: a synchronous run is one asynchronous schedule,
// the fifo one. Every round-k message is sent before any round-(k+1)
// message and rounds deliver in send order, so the synchronous engine
// delivers the globally oldest message first, which is exactly what the
// fifo adversary pops. Over every registry family × seeds 1–3 × {general
// broadcast, labeling, mapping} × {no faults, loss, churn} × four step
// limits, Synchronous() and Sequential() under fifo must log the same
// sends and deliveries and agree on the error, verdict, steps, messages,
// bits, drops, churn report and output. Some cells hand sync a non-fifo
// scheduler, which it must ignore.
func TestSynchronousIsFIFO(t *testing.T) {
	protos := []struct {
		name string
		make func() protocol.Protocol
	}{
		{"general", func() protocol.Protocol { return core.NewGeneralBroadcast(nil) }},
		{"labels", func() protocol.Protocol { return core.NewLabelAssign(nil) }},
		{"map", func() protocol.Protocol { return core.NewMapExtract(nil) }},
	}
	plans := []string{"", "loss=20,seed=3", "crash=2:1,recover=2:4,cut=1:2"}
	ignored := []string{"", "lifo", "random"} // sync's scheduler, by seed

	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	cells := 0
	for _, fam := range scenario.Families() {
		digest := sha256.New()
		for seed := int64(1); seed <= 3; seed++ {
			g, err := scenario.Build(fam.Name, scenarioSizes[fam.Name], seed)
			if err != nil {
				t.Fatalf("build %s seed %d: %v", fam.Name, seed, err)
			}
			for _, pc := range protos {
				for _, plan := range plans {
					var faults *sim.Faults
					if plan != "" {
						if faults, _, err = scenario.CompileSpec(plan, g); err != nil {
							t.Fatal(err)
						}
					}
					for _, maxSteps := range []int{0, 3, 17, 60} {
						cells++
						name := fmt.Sprintf("%s/seed%d/%s/%q/max%d", fam.Name, seed, pc.name, plan, maxSteps)

						seqLog := &eventLog{}
						seq, seqErr := sim.Sequential().Run(g, pc.make(), sim.Options{
							Scheduler: sim.NewFIFOScheduler(), MaxSteps: maxSteps, Faults: faults, Observer: seqLog,
						})
						syncLog := &eventLog{}
						rec := obs.NewRecorder(4)
						opts := sim.Options{MaxSteps: maxSteps, Faults: faults, Observer: syncLog, Obs: rec}
						if s := ignored[seed-1]; s != "" {
							if opts.Scheduler, err = sim.NewScheduler(s); err != nil {
								t.Fatal(err)
							}
						}
						syn, synErr := sim.Synchronous().Run(g, pc.make(), opts)

						if errText(synErr) != errText(seqErr) {
							t.Fatalf("%s: sync error %v, seq/fifo %v", name, synErr, seqErr)
						}
						if syncLog.sb.String() != seqLog.sb.String() {
							t.Fatalf("%s: sync and seq/fifo logged different sends or deliveries", name)
						}
						if syn.Verdict != seq.Verdict || syn.Steps != seq.Steps ||
							syn.Metrics.Messages != seq.Metrics.Messages || syn.Metrics.TotalBits != seq.Metrics.TotalBits ||
							syn.Dropped != seq.Dropped {
							t.Fatalf("%s: sync verdict %s steps %d messages %d bits %d dropped %d, seq/fifo %s %d %d %d %d",
								name, syn.Verdict, syn.Steps, syn.Metrics.Messages, syn.Metrics.TotalBits, syn.Dropped,
								seq.Verdict, seq.Steps, seq.Metrics.Messages, seq.Metrics.TotalBits, seq.Dropped)
						}
						if !reflect.DeepEqual(syn.Churn, seq.Churn) {
							t.Fatalf("%s: sync churn %+v, seq/fifo %+v", name, syn.Churn, seq.Churn)
						}
						if !reflect.DeepEqual(syn.Output, seq.Output) {
							t.Fatalf("%s: sync output %v, seq/fifo %v", name, syn.Output, seq.Output)
						}

						tl, err := rec.Timeline().JSON()
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(digest, "%s rounds %d\n%s\n", name, syn.Rounds, tl)
					}
				}
			}
		}
		got := hex.EncodeToString(digest.Sum(nil))[:16]
		if want := syncTimelineDigests[fam.Name]; got != want {
			t.Errorf("%s: sync rounds+timeline digest %s, pinned %s", fam.Name, got, want)
		}
	}
	if cells != 1404 {
		t.Errorf("%d cells, want 1404", cells)
	}
}
