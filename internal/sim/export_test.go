package sim

// Exported for the black-box tests of package sim_test.
const (
	MeterInline = meterInline
	MeterBatch  = meterBatch
)

// InFlight returns the number of messages a run left queued on its edges.
func InFlight(r *Result) int { return r.Metrics.curInFlight }
