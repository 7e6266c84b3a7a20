package main

import (
	"fmt"
	"math/rand"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/history"
	"fbcache/internal/stats"
	"fbcache/internal/workload"
)

// workloadDef is one named workload: the generated input, the configuration
// of the system under test, and how much untimed warm-up precedes timing.
// README.md gives the reason for each.
type workloadDef struct {
	name string
	// spec generates the file pool and request pool, always from its own
	// Seed; --seed draws the job sequence over that pool (see generate).
	spec workload.Spec
	// jobs is the length of the generated job sequence; a run that
	// outlasts it wraps around.
	jobs int
	// serve runs the jobs against an in-process srm.Server over loopback
	// TCP; false replays them through simulate.Run with no server.
	serve bool
	// conns is the number of client connections (closed loop, one
	// outstanding job each).
	conns int
	// store backs the SRM with a store.Store in a directory under the
	// checkout, so staging moves real bytes and jobs read them back.
	store bool
	// coreOpts is the OptFileBundle configuration.
	coreOpts core.Options
	// warmExtra is the number of sequence jobs run untimed after every pool
	// request has been staged once, so the cache reaches the steady state
	// of the sampled popularity before timing starts. On replay it is the
	// length of the one warm-up simulate.Run, and no permutation precedes it.
	warmExtra int
}

// srmdCore is the policy configuration cmd/srmd runs: OptFileBundle with
// history truncated to cache-resident requests.
var srmdCore = core.Options{History: history.Config{Truncation: history.CacheResident}}

// seqLen is the job sequence length of the timed serving workloads.
const seqLen = 1 << 19

func workloads() []workloadDef {
	hot := workload.DefaultSpec()
	hot.MaxFilePct = 0.006 // 1–60 MB files: a small Zipf tail misses
	hot.Popularity = workload.Zipf

	churn := workload.DefaultSpec() // 1–500 MB files, bundles up to half the cache
	churn.NumFiles = 2000
	churn.NumRequests = 2000

	staged := workload.DefaultSpec()
	staged.CacheSize = 64 * bundle.MB
	staged.NumFiles = 1000
	staged.MinFileSize = 4 * bundle.KB
	staged.MaxFilePct = 0.005 // 4–320 KB files
	staged.NumRequests = 1000
	staged.Popularity = workload.Zipf

	replay := workload.DefaultSpec() // the paper's §5.1 configuration

	return []workloadDef{
		{name: "hot", spec: hot, jobs: seqLen, serve: true, conns: 2, coreOpts: srmdCore, warmExtra: 4000},
		{name: "churn", spec: churn, jobs: seqLen, serve: true, conns: 1, coreOpts: srmdCore},
		{name: "staged", spec: staged, jobs: seqLen, serve: true, conns: 2, store: true, coreOpts: srmdCore, warmExtra: 2000},
		// The replay's warm-up is one simulate.Run of the paper's 10000 jobs.
		{name: "replay", spec: replay, jobs: seqLen, coreOpts: core.Options{}, warmExtra: replay.Jobs},
	}
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloads() {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// generate builds the workload's input: the file and request pools from
// the workload's own spec, so that hit ratios are a property of the
// workload rather than of the seed, and the job sequence drawn from the
// pool under the spec's popularity law with seed.
func (d workloadDef) generate(seed int64) (*workload.Workload, error) {
	spec := d.spec
	spec.Jobs = 0
	w, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sampler stats.Sampler = stats.NewUniform(rng, len(w.Requests))
	if spec.Popularity == workload.Zipf {
		sampler = stats.NewZipf(rng, len(w.Requests), spec.ZipfS)
	}
	w.Jobs = make([]int, d.jobs)
	for i := range w.Jobs {
		w.Jobs[i] = sampler.Next()
	}
	return w, nil
}

// warmJobs is the untimed job list: every pool request once, in an order
// drawn from seed (so history and cache fill), then the first warmExtra
// jobs of the sequence. Timed jobs continue the sequence after those.
func (d workloadDef) warmJobs(w *workload.Workload, seed int64) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(len(w.Requests))
	return append(perm, w.Jobs[:d.warmExtra]...)
}

// timedJob is the i-th timed job's request index.
func (d workloadDef) timedJob(w *workload.Workload, i int) int {
	return w.Jobs[(d.warmExtra+i)%len(w.Jobs)]
}
