package main

import (
	"math"
	"time"

	"fbcache/internal/core"
	"fbcache/internal/policy"
	"fbcache/internal/simulate"
	"fbcache/internal/workload"
)

// replayChunk is how many jobs one simulate.Run call replays in the timed
// phase.
const replayChunk = 500

// replayer is the replay workload's system under test: one OptFileBundle
// with full history, behind the timing decorator, warmed by one
// simulate.Run of the paper's 10000 jobs.
type replayer struct {
	w       *workload.Workload
	opt     *core.OptFileBundle
	pol     policy.Policy
	p       *probes
	warmHit float64
	warmBmr float64
	off     int
	simTime time.Duration // wall time inside simulate.Run during timing
}

func (b *bench) newReplayer(traced bool) (*replayer, time.Duration, error) {
	w, gen, err := b.generate()
	if err != nil {
		return nil, 0, err
	}
	rp := &replayer{w: w, p: newProbes(w.Catalog.Len())}
	rp.opt = core.New(w.Spec.CacheSize, w.Catalog.SizeFunc(), b.def.coreOpts)
	if traced {
		rp.opt.SetTracer(rp.p.sel)
	}
	var inner policy.Policy = policy.WrapOptFileBundle(rp.opt)
	if b.wrap != nil {
		inner = b.wrap(inner)
	}
	// The decorator is on in untraced runs too: the replay's stage latency
	// is the time of one simulated admission.
	rp.pol = &timedPolicy{inner: inner, p: rp.p}
	col, err := simulate.Run(rp.warmWorkload(b.def), rp.pol, simulate.Options{})
	if err != nil {
		return nil, 0, err
	}
	rp.warmHit, rp.warmBmr = col.HitRatio(), col.ByteMissRatio()
	rp.off = b.def.warmExtra
	return rp, gen, nil
}

// check replays the warm-up run on a fresh, undecorated policy: the
// simulator is deterministic and the decorator transparent, so the two
// runs agree bit for bit.
func (rp *replayer) check(r *result, tag string, def workloadDef) {
	fresh := policy.WrapOptFileBundle(core.New(rp.w.Spec.CacheSize, rp.w.Catalog.SizeFunc(), def.coreOpts))
	col, err := simulate.Run(rp.warmWorkload(def), fresh, simulate.Options{})
	ok := err == nil && col.HitRatio() == rp.warmHit && col.ByteMissRatio() == rp.warmBmr
	hit, bmr := 0.0, 0.0
	if col != nil {
		hit, bmr = col.HitRatio(), col.ByteMissRatio()
	}
	r.check(tag+".deterministic", ok, "warm-up hit=%v bmr=%v, fresh run hit=%v bmr=%v %v",
		rp.warmHit, rp.warmBmr, hit, bmr, err)
}

// warmWorkload is the workload cut to its warm-up jobs.
func (rp *replayer) warmWorkload(def workloadDef) *workload.Workload {
	w := *rp.w
	w.Jobs = w.Jobs[:def.warmExtra]
	return &w
}

// measure replays the workload's job sequence in chunks for dur and
// checks that simulate.Run's collectors agree with the results the policy
// returned.
func (rp *replayer) measure(dur time.Duration, r *result, tag string) measured {
	p := rp.p
	p.reset()
	p.win = &windowed{}
	var failed error
	m := timed(func(t0 time.Time) *phase {
		ph := &phase{}
		p.t0 = t0
		for time.Since(p.t0) < dur {
			chunk := *rp.w
			if rp.off+replayChunk > len(rp.w.Jobs) {
				rp.off = 0
			}
			chunk.Jobs = rp.w.Jobs[rp.off : rp.off+replayChunk]
			rp.off += replayChunk
			start := time.Now()
			col, err := simulate.Run(&chunk, rp.pol, simulate.Options{})
			rp.simTime += time.Since(start)
			if err != nil {
				failed = err
				break
			}
			ph.jobs += int(col.Serviced())
			ph.attempted += int(col.Jobs())
			ph.failed += int(col.Unserviceable())
			ph.hits += int64(math.Round(col.HitRatio() * float64(col.Serviced())))
			ph.reqBytes += int64(col.BytesRequested())
			ph.loadedBytes += int64(col.BytesLoaded())
		}
		ph.elapsed = time.Since(p.t0)
		ph.windows = int(dur / window)
		ph.perWindow = p.perWin
		ph.stage, ph.job = *p.win, *p.win
		return ph
	})
	p.win = nil
	r.attempted += m.ph.attempted
	r.failed += m.ph.failed
	r.check(tag+".simulate_ok", failed == nil, "%v", failed)
	r.check(tag+".collector_matches_policy",
		m.ph.hits == p.hits && m.ph.reqBytes == p.reqBytes && m.ph.loadedBytes == p.loadedBytes && int64(m.ph.attempted) == p.admits,
		"simulate: jobs=%d hits=%d loaded=%d; policy results: admits=%d hits=%d loaded=%d",
		m.ph.attempted, m.ph.hits, m.ph.loadedBytes, p.admits, p.hits, p.loadedBytes)
	err := rp.opt.Cache().CheckInvariants()
	r.check(tag+".cache_invariants", err == nil, "%v", err)
	return m
}
