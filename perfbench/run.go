package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs"
	"fbcache/internal/policy"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// setups is how many times an untraced run sets the workload up; setup_s
// is their median, and the last set-up is the one measured.
const setups = 3

func (b *bench) run() (*result, error) {
	if b.def.serve {
		return b.runServing()
	}
	return b.runReplay()
}

// generate builds the workload's input from the seed.
func (b *bench) generate() (*workload.Workload, time.Duration, error) {
	start := time.Now()
	w, err := b.def.generate(b.seed)
	return w, time.Since(start), err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measured is one timed phase with the process-wide cost around it.
type measured struct {
	ph   *phase
	rt   runtimeDelta
	peak uint64
	// perWindow are per-window values of the windowed end-to-end metrics.
	perWindow map[string][]float64
}

// timed runs fn as the measured phase from t0: a GC first so that garbage
// from set-up is not charged to it, then runtime counters, the heap
// high-water mark and per-window CPU time around it.
func timed(fn func(t0 time.Time) *phase) measured {
	runtime.GC()
	before := takeSnap()
	t0 := time.Now()
	w := startWatch(t0)
	ph := fn(t0)
	w.done()
	m := measured{ph: ph, rt: diffSnap(before, takeSnap()), peak: w.peak, perWindow: map[string][]float64{}}
	for i := 0; i < ph.windows && i < len(ph.perWindow); i++ {
		jobs := float64(ph.perWindow[i])
		m.perWindow["jobs_per_s"] = append(m.perWindow["jobs_per_s"], jobs/window.Seconds())
		if i+1 < len(w.cpu) && jobs > 0 {
			m.perWindow["cpu_us_per_job"] = append(m.perWindow["cpu_us_per_job"], usec(w.cpu[i+1]-w.cpu[i])/jobs)
		}
	}
	for _, q := range []struct {
		name string
		w    *windowed
	}{{"stage", &ph.stage}, {"job", &ph.job}} {
		m.perWindow[q.name+"_p50_us"] = q.w.quantilesUs(0.5, ph.windows, 1)
		m.perWindow[q.name+"_p99_us"] = q.w.quantilesUs(0.99, ph.windows, p99Samples)
	}
	return m
}

// p99Samples is the fewest samples a window needs before its 99th
// percentile counts: ten samples beyond it.
const p99Samples = 1000

// endToEnd adds the end-to-end metrics of an untraced timed phase. Each
// windowed metric is the median of its per-window values.
func (r *result) endToEnd(setup []float64, m measured) {
	ph := m.ph
	r.add("setup_s", median(setup), len(setup))
	r.windows = m.perWindow
	for _, name := range []string{"jobs_per_s", "stage_p50_us", "job_p50_us"} {
		r.add(name, median(m.perWindow[name]), len(m.perWindow[name]))
	}
	r.add("hit_ratio", ratio(float64(ph.hits), float64(ph.jobs)), 0)
	r.add("byte_miss_ratio", ratio(float64(ph.loadedBytes), float64(ph.reqBytes)), 0)
	r.add("success_frac", 1-ratio(float64(ph.failed), float64(ph.attempted)), 0)
	r.add("allocs_per_job", ratio(float64(m.rt.allocs), float64(m.ph.jobs)), 0)
	r.add("cpu_us_per_job", median(m.perWindow["cpu_us_per_job"]), len(m.perWindow["cpu_us_per_job"]))
	r.add("heap_peak_mb", float64(m.peak)/float64(bundle.MB), 0)
}

// clientTails adds the 99th percentiles of the stage and of the whole job
// from an untraced phase, summarised per window like the end-to-end
// metrics. They are per-layer because their spread across runs on a
// shared machine exceeds any bound the end-to-end set may carry.
func (r *result) clientTails(m measured) {
	for _, name := range []string{"stage", "job"} {
		w := m.perWindow[name+"_p99_us"]
		r.add("srm."+name+"_us_p99", median(w), len(w))
	}
}

// runtimeLayer adds the Go runtime's per-layer metrics of a timed phase.
func (r *result) runtimeLayer(m measured) {
	r.add("runtime.gc_cycles_per_kjob", ratio(1000*float64(m.rt.gcCycles), float64(m.ph.jobs)), 0)
	r.add("runtime.gc_pause_us_p99", m.rt.gcPauseP99*1e6, int(m.rt.gcPauses))
	r.add("runtime.mutex_wait_us_per_job", ratio(m.rt.mutexSec*1e6, float64(m.ph.jobs)), 0)
}

func (r *result) workloadLayer(w *workload.Workload, gen time.Duration) {
	r.add("workload.gen_s", gen.Seconds(), 0)
	r.add("workload.cache_in_requests",
		ratio(float64(w.Spec.CacheSize), float64(w.MeanRequestBytes())), 0)
	r.add("workload.pool_bytes_over_cache",
		ratio(float64(w.Catalog.TotalSize()), float64(w.Spec.CacheSize)), 0)
}

// runServing measures a serving workload. Untraced: set up three times,
// time the last. Traced: an untraced phase and a traced phase of half the
// time each, on separate instances, then the ladder rungs.
func (b *bench) runServing() (*result, error) {
	r := &result{}
	phaseDur := b.dur
	if b.traced {
		phaseDur = max(b.dur/2, window)
	}
	n := setups
	if b.traced {
		n = 1
	}
	var setup []float64
	var in *instance
	var w *workload.Workload
	var gen time.Duration
	for k := 0; k < n; k++ {
		start := time.Now()
		var err error
		if w, gen, err = b.generate(); err != nil {
			return nil, err
		}
		if in, err = b.boot(w, runOpts{wrap: b.wrap}); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if k < n-1 {
			in.close()
		}
	}
	plain := b.measureServing(in, phaseDur, r)
	in.close()
	if !b.traced {
		r.endToEnd(setup, plain)
		return r, nil
	}

	tin, err := b.boot(w, runOpts{traced: true, wrap: b.wrap})
	if err != nil {
		return nil, err
	}
	tr := b.measureServing(tin, phaseDur, r)
	b.servingLayers(r, tin, plain, tr)
	tin.close()
	if err := writeSpans(filepath.Join(spanDir, b.def.name+".jsonl"), tin.probe.clientSpans, tin.probe.serverSpans); err != nil {
		return nil, err
	}
	r.workloadLayer(w, gen)
	if err := b.ladder(w, r); err != nil {
		return nil, err
	}
	return r, nil
}

// boot sets up one instance and warms it: every pool request once, then
// the start of the job sequence, through the same closed loop as timing.
func (b *bench) boot(w *workload.Workload, o runOpts) (*instance, error) {
	in, err := newInstance(b.def, w, o)
	if err != nil {
		return nil, err
	}
	warm := b.def.warmJobs(w, b.seed)
	ph, _ := in.drive(func(i int) int { return warm[i] }, len(warm), 0, time.Now())
	in.warm = ph
	if ph.failed > 0 {
		in.close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %s", ph.failed, ph.attempted, ph.firstErr)
	}
	return in, nil
}

// measureServing times the closed loop on in for dur and runs the
// correctness checks on what it produced.
func (b *bench) measureServing(in *instance, dur time.Duration, r *result) measured {
	if in.probe != nil {
		in.svc.Stats() // orders the warm-up's probe writes before the reset
		in.probe.reset()
	}
	var claimed int
	m := timed(func(t0 time.Time) *phase {
		ph, n := in.drive(func(i int) int { return b.def.timedJob(in.w, i) }, 0, dur, t0)
		claimed = n
		return ph
	})
	r.attempted += m.ph.attempted
	r.failed += m.ph.failed
	b.checkServing(in, m.ph, claimed, r)
	return m
}

// checkServing verifies the program's outputs after a timed phase.
func (b *bench) checkServing(in *instance, ph *phase, claimed int, r *result) {
	tag := "plain"
	if in.probe != nil {
		tag = "traced"
	}
	st := in.svc.Stats()
	r.check(tag+".quiescent", st.ActiveJobs == 0 && st.PinnedBytes == 0 && st.WaitingJobs == 0,
		"active=%d pinned=%d waiting=%d", st.ActiveJobs, st.PinnedBytes, st.WaitingJobs)
	err := in.opt.Cache().CheckInvariants()
	r.check(tag+".cache_invariants", err == nil, "%v", err)

	// The responses the clients saw must add up to the service's own
	// collector over every job it served.
	jobs := in.warm.jobs + ph.jobs
	hr := ratio(float64(in.warm.hits+ph.hits), float64(jobs))
	bmr := ratio(float64(in.warm.loadedBytes+ph.loadedBytes), float64(in.warm.reqBytes+ph.reqBytes))
	r.check(tag+".wire_matches_stats", int64(jobs) == st.Jobs && hr == st.HitRatio && bmr == st.ByteMissRatio,
		"client jobs=%d hit=%v bmr=%v, server jobs=%d hit=%v bmr=%v", jobs, hr, bmr, st.Jobs, st.HitRatio, st.ByteMissRatio)
	r.check(tag+".no_failures", ph.failed == 0, "%d of %d operations failed %s", ph.failed, ph.attempted, ph.firstErr)

	if in.st != nil {
		diverged, verified := 0, 0
		var verr error
		for id := 0; id < in.w.Catalog.Len(); id++ {
			f := bundle.FileID(id)
			resident := in.opt.Cache().Contains(f)
			if resident != in.st.Contains(f) {
				diverged++
			}
			if resident && verified < 256 {
				verified++
				if err := in.st.Verify(f); err != nil && verr == nil {
					verr = err
				}
			}
		}
		r.check(tag+".store_matches_policy", diverged == 0, "%d files differ between policy residency and store", diverged)
		r.check(tag+".store_verify", verr == nil && verified > 0, "%d resident files verified: %v", verified, verr)
		r.check(tag+".reads", ph.badReads == 0 && ph.reads.n > 0, "%d reads, %d with wrong size or content", ph.reads.n, ph.badReads)
	}

	if b.def.conns == 1 {
		b.checkSerial(in, ph, claimed, st.HitRatio, st.ByteMissRatio, tag, r)
	}
}

// jobTally is an obs.Tracer that sums simulate.Run's per-job records from
// job index from on.
type jobTally struct {
	obs.NopTracer
	from                int
	jobs, hits          int64
	reqBytes, loadBytes int64
}

func (t *jobTally) JobServed(e obs.JobServedEvent) {
	if e.Job < t.from {
		return
	}
	t.jobs++
	if e.Hit {
		t.hits++
	}
	t.reqBytes += e.BytesRequested
	t.loadBytes += e.BytesLoaded
}

// checkSerial replays a one-connection run through simulate.Run on a
// fresh policy: with no concurrency the service must make exactly the
// simulator's decisions, over the whole run and over the timed jobs.
func (b *bench) checkSerial(in *instance, ph *phase, claimed int, hitRatio, byteMiss float64, tag string, r *result) {
	warm := b.def.warmJobs(in.w, b.seed)
	seq := append([]int(nil), warm...)
	for i := 0; i < claimed; i++ {
		seq = append(seq, b.def.timedJob(in.w, i))
	}
	sw := *in.w
	sw.Jobs = seq
	pol := policy.WrapOptFileBundle(core.New(b.def.spec.CacheSize, in.w.Catalog.SizeFunc(), b.def.coreOpts))
	tally := &jobTally{from: len(warm)}
	col, err := simulate.Run(&sw, pol, simulate.Options{Tracer: tally})
	if err != nil {
		r.check(tag+".equals_simulate", false, "%v", err)
		return
	}
	r.check(tag+".equals_simulate",
		col.HitRatio() == hitRatio && col.ByteMissRatio() == byteMiss &&
			tally.jobs == int64(ph.jobs) && tally.hits == ph.hits &&
			tally.reqBytes == ph.reqBytes && tally.loadBytes == ph.loadedBytes,
		"%d jobs: simulate hit=%v bmr=%v, service hit=%v bmr=%v; timed simulate hits=%d loaded=%d, clients hits=%d loaded=%d",
		len(seq), col.HitRatio(), col.ByteMissRatio(), hitRatio, byteMiss, tally.hits, tally.loadBytes, ph.hits, ph.loadedBytes)
}

// servingLayers adds the per-layer metrics of a traced serving run: tin is
// the traced instance, plain and tr the untraced and traced phases.
func (b *bench) servingLayers(r *result, tin *instance, plain, tr measured) {
	p := tin.probe
	st := tin.svc.Stats() // orders the probes' writes before these reads
	p.policyLayers(r, tr.ph.elapsed, tin.opt.History().Len())

	ss := analyzeSpans(p.serverSpans.events(), p.clientSpans.events())
	r.add("srm.server_stage_us_p50", quantile(ss.serverStage, 0.5), len(ss.serverStage))
	r.add("srm.server_stage_us_p99", quantile(ss.serverStage, 0.99), len(ss.serverStage))
	r.add("srm.wire_us_p50", quantile(ss.wire, 0.5), len(ss.wire))
	r.add("srm.wire_us_p99", quantile(ss.wire, 0.99), len(ss.wire))
	r.add("srm.server_release_us_p50", quantile(ss.serverRelease, 0.5), len(ss.serverRelease))
	r.add("srm.unattributed_us_p50", quantile(ss.unattributed, 0.5), len(ss.unattributed))
	r.add("srm.unattributed_us_p99", quantile(ss.unattributed, 0.99), len(ss.unattributed))
	r.add("srm.wait_frac", ratio(float64(ss.waited), float64(ss.stages)), 0)
	r.add("srm.wait_us_p99", quantile(ss.wait, 0.99), len(ss.wait))
	r.add("srm.store_retries", float64(st.Resilience.Retries), 0)
	r.clientTails(plain)
	rel := plain.ph.release.total()
	r.add("srm.release_us_p50", rel.quantileUs(0.5), rel.n)
	r.add("srm.release_us_p99", rel.quantileUs(0.99), rel.n)

	var storeSec float64
	for _, us := range ss.store {
		storeSec += us / 1e6
	}
	r.add("store.sync_us_p50", quantile(ss.store, 0.5), len(ss.store))
	r.add("store.sync_us_p99", quantile(ss.store, 0.99), len(ss.store))
	r.add("store.source_us_p50", p.source.quantileUs(0.5), p.source.n)
	r.add("store.write_mb_per_s", ratio(float64(p.loadedBytes)/float64(bundle.MB), storeSec), 0)
	rd := &plain.ph.reads
	r.add("store.read_us_p50", rd.quantileUs(0.5), rd.n)
	r.add("store.read_us_p99", rd.quantileUs(0.99), rd.n)
	r.add("store.read_mb_per_s", ratio(float64(plain.ph.readBytes)/float64(bundle.MB), plain.ph.readTime.Seconds()), 0)
	storeFiles, disk := 0.0, 0.0
	if tin.st != nil {
		storeFiles = ratio(float64(p.filesEvicted), float64(p.admits))
		disk = float64(tin.st.DiskUsage()) / float64(bundle.MB)
	}
	r.add("store.files_removed_per_job", storeFiles, 0)
	r.add("store.disk_mb_end", disk, 0)
	r.add("simulate.admit_share", 0, 0)
	r.runtimeLayer(plain)
	r.add("trace.overhead_frac", 1-ratio(median(tr.perWindow["jobs_per_s"]), median(plain.perWindow["jobs_per_s"])), 0)
}

// runReplay measures the replay workload: simulate.Run over the paper's
// §5.1 DefaultSpec through OptFileBundle with full history, in chunks, on
// one policy instance warmed by one simulate.Run of the paper's 10000 jobs.
func (b *bench) runReplay() (*result, error) {
	r := &result{}
	phaseDur := b.dur
	n := setups
	if b.traced {
		phaseDur, n = max(b.dur/2, window), 1
	}
	var setup []float64
	var rp *replayer
	var gen time.Duration
	for k := 0; k < n; k++ {
		start := time.Now()
		var err error
		if rp, gen, err = b.newReplayer(false); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	rp.check(r, "plain", b.def)
	plain := rp.measure(phaseDur, r, "plain")
	if !b.traced {
		r.endToEnd(setup, plain)
		return r, nil
	}

	trp, _, err := b.newReplayer(true)
	if err != nil {
		return nil, err
	}
	trp.check(r, "traced", b.def)
	tr := trp.measure(phaseDur, r, "traced")
	p := trp.p
	p.policyLayers(r, tr.ph.elapsed, trp.opt.History().Len())
	for _, name := range []string{
		"srm.server_stage_us_p50", "srm.server_stage_us_p99", "srm.wire_us_p50", "srm.wire_us_p99",
		"srm.server_release_us_p50", "srm.unattributed_us_p50", "srm.unattributed_us_p99",
		"srm.wait_frac", "srm.wait_us_p99", "srm.store_retries", "srm.release_us_p50", "srm.release_us_p99",
		"store.sync_us_p50", "store.sync_us_p99", "store.source_us_p50", "store.write_mb_per_s",
		"store.read_us_p50", "store.read_us_p99", "store.read_mb_per_s", "store.files_removed_per_job",
		"store.disk_mb_end",
	} {
		r.add(name, 0, 0) // no server or store on this workload
	}
	r.clientTails(plain)
	r.add("simulate.admit_share", ratio(p.admitTime.Seconds(), trp.simTime.Seconds()), 0)
	r.runtimeLayer(plain)
	r.add("trace.overhead_frac", 1-ratio(median(tr.perWindow["jobs_per_s"]), median(plain.perWindow["jobs_per_s"])), 0)
	r.workloadLayer(rp.w, gen)
	if err := b.ladder(rp.w, r); err != nil {
		return nil, err
	}
	return r, nil
}

// policyLayers adds the core, history and cache metrics the policy
// decorator and the selection tracer saw in a timed phase of length
// elapsed; entries is the history's size at the end.
func (p *probes) policyLayers(r *result, elapsed time.Duration, entries int) {
	r.add("core.admit_us_p50", p.admit.quantileUs(0.5), p.admit.n)
	r.add("core.admit_us_p99", p.admit.quantileUs(0.99), p.admit.n)
	r.add("core.admit_busy_frac", ratio(p.admitTime.Seconds(), elapsed.Seconds()), 0)
	r.add("core.select_rounds_per_job", ratio(float64(p.sel.rounds), float64(p.admits)), 0)
	r.add("core.select_candidates_mean", ratio(float64(p.sel.candidates), float64(p.sel.rounds)), int(p.sel.rounds))
	r.add("history.entries", float64(entries), 0)
	r.add("cache.loaded_files_per_job", ratio(float64(p.filesLoaded), float64(p.admits)), 0)
	r.add("cache.evicted_files_per_job", ratio(float64(p.filesEvicted), float64(p.admits)), 0)
	r.add("cache.reload_frac", ratio(float64(p.reloads), float64(p.filesLoaded)), 0)
}
