package span

import (
	"time"

	"fbcache/internal/obs"
)

// quantileOrZero reads a live quantile, mapping the no-observations NaN to
// 0 so the Prometheus exposition stays parseable (same convention as
// srm.NewRegistry's request-size gauges).
func quantileOrZero(h *obs.Histogram, q float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Quantile(q)
}

// ExportTo registers the recorder's per-operation latency histograms
// (fbcache_op_latency_seconds{op="..."} with p50/p90/p99 gauges), error
// counters, the request in-flight gauge and the flight-recorder
// accounting on reg. Call once per registry; the obs name-collision panic
// catches double export. Safe on a nil recorder (registers nothing).
func (r *Recorder) ExportTo(reg *obs.Registry) {
	if r == nil {
		return
	}
	for op := OpNone + 1; op < opCount; op++ {
		h := r.lat[op]
		label := `{op="` + op.String() + `"}`
		reg.RegisterHistogram("fbcache_op_latency_seconds"+label,
			"Wall-clock span latency per operation (seconds).", h)
		for _, q := range []struct {
			name string
			q    float64
		}{
			{"fbcache_op_latency_p50_seconds", 0.50},
			{"fbcache_op_latency_p90_seconds", 0.90},
			{"fbcache_op_latency_p99_seconds", 0.99},
		} {
			q := q
			reg.GaugeFunc(q.name+label,
				"Interpolated latency quantile of fbcache_op_latency_seconds.",
				func() float64 { return quantileOrZero(h, q.q) })
		}
		errs := &r.errs[op]
		reg.CounterFunc("fbcache_op_errors_total"+label,
			"Spans finished with a non-empty error class.",
			func() float64 { return float64(errs.Load()) })
	}
	reg.GaugeFunc("fbcache_spans_inflight",
		"Request root spans started but not yet finished.",
		func() float64 { return float64(r.inflight.Load()) })
	reg.CounterFunc("fbcache_flight_requests_total",
		"Request roots finished by the flight recorder.",
		func() float64 { return float64(r.requests.Load()) })
	reg.CounterFunc("fbcache_flight_kept_total",
		"Requests promoted to the kept ring (anomalous or head-sampled).",
		func() float64 { return float64(r.keptReqs.Load()) })
	reg.CounterFunc("fbcache_flight_anomalies_total",
		"Requests promoted for error or slowness.",
		func() float64 { return float64(r.anomalies.Load()) })
	reg.CounterFunc("fbcache_flight_dropped_total",
		"Spans overwritten in the recorder rings before inspection.",
		func() float64 { return float64(r.Counters().Dropped) })
}

// OpLatencyQuantile reads a live latency quantile for op, in seconds
// (0 when nothing observed, NaN never). Safe on nil (0).
func (r *Recorder) OpLatencyQuantile(op Op, q float64) float64 {
	if r == nil || op <= OpNone || op >= opCount {
		return 0
	}
	return quantileOrZero(r.lat[op], q)
}

// OpErrors reports how many op spans finished with an error. Safe on nil.
func (r *Recorder) OpErrors(op Op) int64 {
	if r == nil || op >= opCount {
		return 0
	}
	return r.errs[op].Load()
}

// SlowThreshold reports the anomaly threshold the recorder runs with.
// Safe on nil (0).
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNs)
}
