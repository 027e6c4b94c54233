package sim

// Exported for the black-box tests of package sim_test.
const (
	MeterInline = meterInline
	MeterBatch  = meterBatch
)

// InFlight returns the number of messages a run left queued on its edges.
func InFlight(r *Result) int { return r.Metrics.curInFlight }

// TookPipe reports whether a metering pipe was closed since the last call,
// that is whether a run in between metered on a goroutine, and clears it.
// The tests of this package run one at a time, so the answer is about the
// run they made.
func TookPipe() bool { return spareMeterPipe.Swap(nil) != nil }
