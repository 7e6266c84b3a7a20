package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fbcache/internal/core"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
	"fbcache/internal/srm"
	"fbcache/internal/store"
	"fbcache/internal/workload"
)

// ladderJobs is how many jobs each ladder rung times, after its warm-up.
const ladderJobs = 1000

// ladder replays the workload's jobs serially against fresh instances at
// three rungs — policy.Admit, in-process SRM.Stage+Release, and one
// srm.Client over loopback — so a change at one rung shows at the rungs
// above it.
func (b *bench) ladder(w *workload.Workload, r *result) error {
	warm := b.def.warmJobs(w, b.seed)
	if !b.def.serve {
		warm = w.Jobs[:b.def.warmExtra] // the replay warms with one simulate.Run
	}
	newPolicy := func() policy.Policy {
		return policy.WrapOptFileBundle(core.New(b.def.spec.CacheSize, w.Catalog.SizeFunc(), b.def.coreOpts))
	}
	rung := func(name string, job func(r int) error) error {
		for _, j := range warm {
			if err := job(j); err != nil {
				return fmt.Errorf("ladder %s warm-up: %w", name, err)
			}
		}
		runtime.GC()
		a0 := mallocs()
		start := time.Now()
		for i := 0; i < ladderJobs; i++ {
			if err := job(b.def.timedJob(w, i)); err != nil {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
		}
		d := time.Since(start)
		r.add("ladder."+name+"_us", usec(d)/ladderJobs, ladderJobs)
		r.add("ladder."+name+"_allocs", float64(mallocs()-a0)/ladderJobs, ladderJobs)
		return nil
	}

	pol := newPolicy()
	if err := rung("admit", func(j int) error {
		if res := pol.Admit(w.Requests[j]); res.Unserviceable {
			return fmt.Errorf("request %d unserviceable", j)
		}
		return nil
	}); err != nil {
		return err
	}

	svc := srm.New(newPolicy(), w.Catalog).WithSpans(span.New(span.Options{SlowThreshold: 100 * time.Millisecond}))
	if b.def.store {
		dir, err := os.MkdirTemp(tmpRoot, "ladder-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.New(dir, newMemSource(w))
		if err != nil {
			return err
		}
		svc.WithStore(st)
	}
	if err := rung("stage", func(j int) error {
		rel, _, err := svc.Stage(w.Requests[j])
		if err != nil {
			return err
		}
		rel()
		return nil
	}); err != nil {
		return err
	}
	svc.Close()

	one := b.def
	one.conns = 1
	in, err := newInstance(one, w, runOpts{})
	if err != nil {
		return err
	}
	defer in.close()
	c := in.cl[0]
	return rung("wire", func(j int) error {
		token, _, _, err := c.Stage(in.names[j]...)
		if err != nil {
			return err
		}
		return c.Release(token)
	})
}
