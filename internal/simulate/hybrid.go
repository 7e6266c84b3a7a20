package simulate

import (
	"fmt"
	"math/rand"

	"fbcache/internal/bundle"
	"fbcache/internal/metrics"
	"fbcache/internal/policy"
	"fbcache/internal/workload"
)

// ServiceModel selects how a job's files are serviced (§2).
type ServiceModel int

const (
	// BundleAtATime stages the whole file-bundle before the job runs —
	// the model this paper is about.
	BundleAtATime ServiceModel = iota
	// OneFileAtATime issues each file as its own request; the job
	// completes after all per-file tasks — the model of the authors' prior
	// work [8], and one leg of the §6 hybrid execution model.
	OneFileAtATime
)

func (m ServiceModel) String() string {
	switch m {
	case BundleAtATime:
		return "bundle-at-a-time"
	case OneFileAtATime:
		return "one-file-at-a-time"
	}
	return fmt.Sprintf("ServiceModel(%d)", int(m))
}

// HybridOptions configures RunHybrid.
type HybridOptions struct {
	// BundleFraction is the probability a job uses BundleAtATime service;
	// the rest run OneFileAtATime. 1.0 degenerates to Run, 0.0 to a pure
	// single-file workload.
	BundleFraction float64
	// Seed drives the per-job model assignment.
	Seed int64
}

// HybridStats reports a hybrid run, per service model and combined.
type HybridStats struct {
	Bundle   metrics.Collector // jobs serviced bundle-at-a-time
	PerFile  metrics.Collector // jobs serviced one-file-at-a-time
	Combined metrics.Collector // all jobs (per-file jobs folded to job level)

	BundleJobs  int64
	PerFileJobs int64
}

// RunHybrid drives w through p under the §6 hybrid execution model: each
// job is independently assigned a service model. Bundle jobs admit their
// whole bundle at once; per-file jobs admit each file as a singleton
// request, in file-ID order, and count as a request-hit only if every task
// hit. Byte accounting is identical across models, so the byte miss ratios
// are directly comparable.
func RunHybrid(w *workload.Workload, p policy.Policy, opts HybridOptions) (*HybridStats, error) {
	if w == nil || p == nil {
		return nil, fmt.Errorf("simulate: nil workload or policy")
	}
	if opts.BundleFraction < 0 || opts.BundleFraction > 1 {
		return nil, fmt.Errorf("simulate: BundleFraction %v outside [0,1]", opts.BundleFraction)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	st := &HybridStats{}

	for _, j := range w.Jobs {
		b := w.Requests[j]
		if rng.Float64() < opts.BundleFraction {
			res := p.Admit(b)
			st.Bundle.Record(res)
			st.Combined.Record(res)
			st.BundleJobs++
			continue
		}
		// One file at a time: fold the per-task results into one job-level
		// result so job metrics stay comparable.
		var jobRes policy.Result
		jobRes.Hit = true
		for _, f := range b {
			res := p.Admit(bundle.New(f))
			if res.Unserviceable {
				jobRes.Unserviceable = true
			}
			jobRes.Hit = jobRes.Hit && res.Hit
			jobRes.BytesRequested += res.BytesRequested
			jobRes.BytesLoaded += res.BytesLoaded
			jobRes.FilesLoaded += res.FilesLoaded
			jobRes.FilesEvicted += res.FilesEvicted
		}
		st.PerFile.Record(jobRes)
		st.Combined.Record(jobRes)
		st.PerFileJobs++
	}
	return st, nil
}
