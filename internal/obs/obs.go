// Package obs is the run-telemetry layer: every engine can feed one Recorder
// per run, and the recorder keeps two strictly separated planes.
//
// The deterministic plane — the Timeline — is built from logical-clock
// samples taken every K deliveries: in-flight count, cumulative sends,
// deliveries, fault drops, crash-consumed deliveries and scheduler pop
// choices, one sample track per shard, plus per-superstep occupancy rows. On the deterministic engines it is a pure function of
// (graph, protocol, scheduler, seed, shards): the sequential engine and the
// sharded engine at one shard execute the identical schedule and therefore
// produce byte-identical Timeline JSON, and the sharded engine at any shard
// count reproduces its timeline bit-for-bit across runs regardless of thread
// timing. The wild engines (concurrent, tcp) fill the same structure with
// one linearization of their nondeterministic schedule.
//
// The wall-clock plane — Phases — accumulates real durations of named run
// phases (partition/drain/merge for shard, setup/io-loop for tcp, ...). It
// is deliberately kept out of the Timeline so replay, conformance and the
// determinism contract never see a wall clock.
//
// Everything is nil-safe: a nil *Recorder and a nil *Track are valid
// receivers whose methods do nothing, so engines hook the hot path
// unconditionally and pay one predictable nil check when telemetry is off —
// the zero-allocation steady-state delivery guarantee holds with obs
// disabled (asserted by TestSteadyDeliveryZeroAllocs).
package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// TimelineSchemaVersion identifies the Timeline JSON layout; tooling must
// refuse to compare mismatched versions.
// Version 2 added the churn section (dynamic-network events with per-event
// re-stabilization); version 3 dropped the forced-step counter; version 4
// dropped the scheduler-pop counter, which equalled the delivery count.
const TimelineSchemaVersion = 4

// DefaultSampleEvery is the logical-clock sampling stride K used when a
// recorder is created with a non-positive stride.
const DefaultSampleEvery = 64

// Sample is one logical-clock observation of a track, taken when the
// track's cumulative delivery count hits a multiple of the stride. All
// fields are cumulative since the start of the run except InFlight, which is
// the instantaneous queued-minus-delivered count of the track's shard.
type Sample struct {
	// Step is the track's delivery count at the moment of the sample — the
	// logical clock.
	Step int64 `json:"step"`
	// InFlight is the number of messages enqueued on this shard's edges and
	// not yet delivered. Cross-shard messages count from the merge that
	// ingests them, not from the send.
	InFlight int64 `json:"in_flight"`
	// Sends counts metered sends (including ones the fault plan dropped).
	Sends int64 `json:"sends"`
	// Drops counts sends discarded by the fault plan.
	Drops int64 `json:"drops"`
	// Crashes counts deliveries consumed unprocessed by crashed vertices.
	Crashes int64 `json:"crashes"`
}

// Totals are the end-of-run cumulative counters of one track, or the
// aggregate over all tracks.
type Totals struct {
	Deliveries int64 `json:"deliveries"`
	Sends      int64 `json:"sends"`
	Drops      int64 `json:"drops"`
	Crashes    int64 `json:"crashes"`
	// PeakInFlight is the track's local high-water mark of queued messages.
	// In the aggregate it is the maximum over tracks — a lower bound on the
	// global peak, which only barrier points define for a sharded run (the
	// engine-level Metrics.PeakInFlight reports that one).
	PeakInFlight int64 `json:"peak_in_flight"`
}

// TrackSeries is the exported sample series of one shard's track.
type TrackSeries struct {
	Shard   int      `json:"shard"`
	Samples []Sample `json:"samples"`
	Totals  Totals   `json:"totals"`
}

// SuperstepRow is the per-shard delivery occupancy of one superstep: how
// many deliveries each shard executed between two barriers. The sequential
// engine reports one row (the whole run), the synchronous engine one row per
// round, the sharded engine one row per superstep.
type SuperstepRow struct {
	Index      int     `json:"index"`
	Deliveries []int64 `json:"deliveries"`
}

// ChurnRow is one fired churn event of the run's fault plan: a vertex crash
// or recovery, an edge cut or join, or a loss-schedule step, stamped with
// the global delivery clock at which it became observable and its
// re-stabilization cost — the deliveries the network still needed to go
// quiet after the change. On the deterministic engines the rows are a pure
// function of (plan, schedule); the wild engines report one honest
// linearization.
type ChurnRow struct {
	// Kind is crash, recover, cut, join or loss (see sim's Churn* kinds).
	Kind string `json:"kind"`
	// Vertex is the affected vertex for crash/recover rows, else -1.
	Vertex int `json:"vertex"`
	// Edge is the affected edge for cut/join rows, else -1.
	Edge int `json:"edge"`
	// At is the plan trigger: a delivery count for vertex rows, a per-edge
	// send index for edge and loss rows.
	At int `json:"at"`
	// Clock is the global delivery clock when the event fired.
	Clock int64 `json:"clock"`
	// Restabilize is deliveries-to-quiescence after the event: the run's
	// final delivery clock minus Clock.
	Restabilize int64 `json:"restabilize_deliveries"`
}

// Timeline is the deterministic plane of a run's telemetry.
type Timeline struct {
	SchemaVersion int            `json:"schema_version"`
	Protocol      string         `json:"protocol"`
	Scheduler     string         `json:"scheduler"`
	Seed          int64          `json:"seed"`
	Shards        int            `json:"shards"`
	SampleEvery   int            `json:"sample_every"`
	Tracks        []TrackSeries  `json:"tracks"`
	Supersteps    []SuperstepRow `json:"supersteps"`
	Churn         []ChurnRow     `json:"churn"`
	Totals        Totals         `json:"totals"`
}

// JSON renders the timeline in its canonical indented form. Struct field
// order fixes the byte layout, so equal timelines are byte-identical — the
// form the determinism contract is stated over.
func (t *Timeline) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Phase is one named wall-clock phase: total duration and how many times it
// ran (a sharded run accumulates one drain and one merge count per
// superstep).
type Phase struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Count  int64   `json:"count"`
}

// Report is the full two-plane telemetry of one run. Only Timeline is
// deterministic; Phases carry wall-clock durations and legitimately differ
// between runs of the same configuration.
type Report struct {
	Timeline *Timeline `json:"timeline"`
	Phases   []Phase   `json:"phases"`
}

// JSON renders the full report (both planes) as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Track accumulates one shard's deterministic counters and samples. A track
// has a single owning goroutine during a drain (engines with multi-goroutine
// event sources serialize their calls through their own lock); methods are
// nil-safe no-ops so hot paths hook them unconditionally.
type Track struct {
	every int64
	shard int

	deliveries int64
	sends      int64
	drops      int64
	crashes    int64
	enqueued   int64
	peak       int64

	samples []Sample
}

// Send counts one metered send (called for every send, dropped or not).
func (t *Track) Send() {
	if t == nil {
		return
	}
	t.sends++
}

// Dropped counts one send discarded by the fault plan.
func (t *Track) Dropped() {
	if t == nil {
		return
	}
	t.drops++
}

// Enqueued counts one message entering a queue owned by this track's shard —
// a local send that survived the fault plan, or a cross-shard message
// ingested at a merge.
func (t *Track) Enqueued() {
	if t == nil {
		return
	}
	t.enqueued++
	if cur := t.enqueued - t.deliveries; cur > t.peak {
		t.peak = cur
	}
}

// Adopt moves n queued-undelivered messages into this track's accounting —
// the receiving side of a barrier-time work donation in the sharded engine.
// Counted like a bulk Enqueued so the track's in-flight view (enqueued minus
// deliveries) stays consistent when ownership migrates.
func (t *Track) Adopt(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.enqueued += int64(n)
	if cur := t.enqueued - t.deliveries; cur > t.peak {
		t.peak = cur
	}
}

// Donate removes n queued-undelivered messages from this track's accounting —
// the giving side of a barrier-time work donation. The donor's in-flight
// view drops by n; the messages reappear via the thief's Adopt.
func (t *Track) Donate(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.enqueued -= int64(n)
}

// Delivered counts one completed delivery step — engines call it after the
// delivery's triggered sends are accounted, so a sample taken here sees them
// — and takes a logical-clock sample every stride deliveries.
func (t *Track) Delivered(crashed bool) {
	if t == nil {
		return
	}
	t.deliveries++
	if crashed {
		t.crashes++
	}
	if t.deliveries%t.every == 0 {
		t.samples = append(t.samples, Sample{
			Step:     t.deliveries,
			InFlight: t.enqueued - t.deliveries,
			Sends:    t.sends,
			Drops:    t.drops,
			Crashes:  t.crashes,
		})
	}
}

func (t *Track) totals() Totals {
	return Totals{
		Deliveries:   t.deliveries,
		Sends:        t.sends,
		Drops:        t.drops,
		Crashes:      t.crashes,
		PeakInFlight: t.peak,
	}
}

// Recorder collects one run's telemetry. Engines call Configure once at run
// start, Tracks once for their per-shard tracks, Superstep at each barrier,
// and StartPhase around wall-clock phases; the facade (or CLI) then reads
// the result with Timeline or Report. A nil *Recorder is a valid receiver
// for every method.
type Recorder struct {
	sampleEvery int

	protocol  string
	scheduler string
	seed      int64
	shards    int

	tracks []*Track

	// mu guards the cold, coordinator-or-rare paths: superstep rows, churn
	// rows and phase accumulation. Track counters are single-owner and
	// unguarded.
	mu         sync.Mutex
	supersteps []SuperstepRow
	churn      []ChurnRow
	phases     []Phase
	phaseIdx   map[string]int
}

// NewRecorder returns a recorder sampling every sampleEvery deliveries
// (non-positive means DefaultSampleEvery).
func NewRecorder(sampleEvery int) *Recorder {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	return &Recorder{sampleEvery: sampleEvery, phaseIdx: map[string]int{}}
}

// SampleEvery returns the logical-clock stride K.
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return r.sampleEvery
}

// Configure records the run's identity — the tuple the deterministic plane
// is a pure function of. Engines call it once, at run start; the first call
// wins (the canonicalizing replay of a wild capture never reconfigures the
// wild run's recorder).
func (r *Recorder) Configure(protocol, scheduler string, seed int64, shards int) {
	if r == nil || r.protocol != "" {
		return
	}
	r.protocol = protocol
	r.scheduler = scheduler
	r.seed = seed
	r.shards = shards
}

// Tracks allocates the run's n per-shard tracks, indexed by shard ID. A
// second call (a defensive guard, not an expected path) returns unregistered
// throwaway tracks so an accidental re-run cannot corrupt the first run's
// series.
func (r *Recorder) Tracks(n int) []*Track {
	if r == nil {
		return nil
	}
	ts := make([]*Track, n)
	for i := range ts {
		ts[i] = &Track{every: int64(r.sampleEvery), shard: i}
	}
	if r.tracks == nil {
		r.tracks = ts
	}
	return ts
}

// Superstep appends one occupancy row: deliveries[s] is the number of
// deliveries shard s executed in the superstep that just ended. The slice is
// copied.
func (r *Recorder) Superstep(deliveries []int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.supersteps = append(r.supersteps, SuperstepRow{
		Index:      len(r.supersteps),
		Deliveries: append([]int64(nil), deliveries...),
	})
	r.mu.Unlock()
}

// RecordChurn stores the run's fired churn rows, already stamped with their
// re-stabilization cost. The facade calls it once after the run, from the
// engine's sim-level churn report; the first non-empty call wins, matching
// Configure (a canonicalizing replay never overwrites the original rows).
// The slice is copied.
func (r *Recorder) RecordChurn(rows []ChurnRow) {
	if r == nil || len(rows) == 0 {
		return
	}
	r.mu.Lock()
	if r.churn == nil {
		r.churn = append([]ChurnRow(nil), rows...)
	}
	r.mu.Unlock()
}

// StartPhase starts measuring the named wall-clock phase and returns the
// stop function; repeated phases accumulate duration and count. The nil
// recorder returns a shared no-op stop.
func (r *Recorder) StartPhase(name string) func() {
	if r == nil {
		return nopStop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		r.mu.Lock()
		i, ok := r.phaseIdx[name]
		if !ok {
			i = len(r.phases)
			r.phaseIdx[name] = i
			r.phases = append(r.phases, Phase{Name: name})
		}
		r.phases[i].WallMS += float64(d) / float64(time.Millisecond)
		r.phases[i].Count++
		r.mu.Unlock()
	}
}

var nopStop = func() {}

// Timeline builds the deterministic plane from the collected tracks and
// superstep rows. Slices are always non-nil so the JSON layout is stable.
func (r *Recorder) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := &Timeline{
		SchemaVersion: TimelineSchemaVersion,
		Protocol:      r.protocol,
		Scheduler:     r.scheduler,
		Seed:          r.seed,
		Shards:        r.shards,
		SampleEvery:   r.sampleEvery,
		Tracks:        make([]TrackSeries, 0, len(r.tracks)),
		Supersteps:    append([]SuperstepRow{}, r.supersteps...),
		Churn:         append([]ChurnRow{}, r.churn...),
	}
	for _, t := range r.tracks {
		tot := t.totals()
		samples := t.samples
		if samples == nil {
			samples = []Sample{}
		}
		tl.Tracks = append(tl.Tracks, TrackSeries{Shard: t.shard, Samples: samples, Totals: tot})
		tl.Totals.Deliveries += tot.Deliveries
		tl.Totals.Sends += tot.Sends
		tl.Totals.Drops += tot.Drops
		tl.Totals.Crashes += tot.Crashes
		if tot.PeakInFlight > tl.Totals.PeakInFlight {
			tl.Totals.PeakInFlight = tot.PeakInFlight
		}
	}
	return tl
}

// Report builds the full two-plane report.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	tl := r.Timeline()
	r.mu.Lock()
	phases := append([]Phase{}, r.phases...)
	r.mu.Unlock()
	return &Report{Timeline: tl, Phases: phases}
}
