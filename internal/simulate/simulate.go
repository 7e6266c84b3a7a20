// Package simulate is the Go counterpart of the paper's cacheSim: it drives
// replacement policies with generated (or replayed) workloads and collects
// the §1.2 metrics.
//
// Two simulators are provided:
//
//   - Run: the trace-driven simulator behind every byte-miss-ratio figure.
//     Jobs are served one at a time (optionally through the §5.2 admission
//     queue) and only cache traffic is modelled.
//   - RunEvents (events.go): a discrete-event simulator that adds time —
//     MSS transfer channels, staging delays, job processing, pinning and
//     bounded concurrency — and reports throughput and response times.
package simulate

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/metrics"
	"fbcache/internal/obs"
	"fbcache/internal/policy"
	"fbcache/internal/queue"
	"fbcache/internal/workload"
)

// Options configures a trace-driven run.
type Options struct {
	// QueueLength aggregates jobs into batches of this size served in
	// scheduler order (paper Fig. 9). <= 1 means pure FCFS.
	QueueLength int
	// Scheduler orders batched jobs; nil defaults to FCFS order within the
	// batch. Ignored when QueueLength <= 1.
	Scheduler queue.Scheduler
	// SeriesInterval, if > 0, samples a time-series point every N jobs.
	SeriesInterval int
	// Tracer, when non-nil, receives a JobServedEvent per job (stamped with
	// the job ordinal — the trace-driven simulator has no clock). Policy- and
	// cache-level events are installed separately via SetTracer on the policy.
	Tracer obs.Tracer
}

// Run drives every job of w through p and returns the collected metrics.
func Run(w *workload.Workload, p policy.Policy, opts Options) (*metrics.Collector, error) {
	if w == nil || p == nil {
		return nil, fmt.Errorf("simulate: nil workload or policy")
	}
	col := &metrics.Collector{Interval: opts.SeriesInterval}

	served := 0
	serve := func(b bundle.Bundle) {
		res := p.Admit(b)
		served++
		if opts.Tracer != nil {
			// No queueing is modelled here, so queue entry and first stage
			// coincide with service: the critical-path queue wait is zero.
			opts.Tracer.JobServed(obs.JobServedEvent{
				At:             float64(served),
				Job:            served - 1,
				Hit:            res.Hit,
				QueuedAt:       float64(served),
				FirstStageAt:   float64(served),
				BytesRequested: int64(res.BytesRequested),
				BytesLoaded:    int64(res.BytesLoaded),
			})
		}
		col.Record(res)
	}

	if opts.QueueLength <= 1 {
		for _, j := range w.Jobs {
			serve(w.Requests[j])
		}
		return col, nil
	}

	sched := opts.Scheduler
	if sched == nil {
		sched = queue.FCFS()
	}
	batcher := queue.NewBatcher(opts.QueueLength, sched, serve)
	for _, j := range w.Jobs {
		batcher.Submit(w.Requests[j])
	}
	batcher.Flush()
	return col, nil
}

// Compare runs the same workload through several policy factories (fresh
// instances each) and returns the collectors keyed by policy name.
func Compare(w *workload.Workload, factories []policy.Factory, opts Options) (map[string]*metrics.Collector, error) {
	out := make(map[string]*metrics.Collector, len(factories))
	for _, mk := range factories {
		p := mk(w.Spec.CacheSize, w.Catalog.SizeFunc())
		col, err := Run(w, p, opts)
		if err != nil {
			return nil, err
		}
		if _, dup := out[p.Name()]; dup {
			return nil, fmt.Errorf("simulate: duplicate policy name %q", p.Name())
		}
		out[p.Name()] = col
	}
	return out, nil
}
