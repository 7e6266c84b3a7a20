// Job service with real bytes: the full §1 policy trio working together —
// the job service policy (queue + scheduler with the lockout guard), the
// file caching policy (bypass for oversized one-offs), and the cache
// replacement policy (OptFileBundle) — over an on-disk store, so staged
// bundles are actual files the jobs read.
//
//	go run ./examples/jobservice
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"fbcache"
)

func main() {
	// Catalog: analysis inputs plus one giant raw dump that should never be
	// cached.
	cat := fbcache.NewCatalog()
	events := cat.Add("events.root", 3*fbcache.MB)
	tracks := cat.Add("tracks.root", 2*fbcache.MB)
	calib := cat.Add("calib.db", 1*fbcache.MB)
	rawDump := cat.Add("raw-dump.bin", 9*fbcache.MB)

	// Replacement policy + caching policy (bypass files > 50% of cache).
	inner := fbcache.NewCache(12*fbcache.MB, cat.SizeFunc())
	guarded := fbcache.NewBypassPolicy(inner, cat.SizeFunc(), 0.5)

	// Real bytes: a source that synthesizes content per file, exactly as
	// long as the catalog says (the SRM rejects a file of any other length).
	dir, err := os.MkdirTemp("", "fbcache-jobservice-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	st, err := fbcache.NewStore(dir, fbcache.FetchFromFunc(func(f fbcache.FileID) (io.ReadCloser, error) {
		line := cat.Name(f) + "\n"
		var payload strings.Builder
		for fbcache.Size(payload.Len()) < cat.Size(f) {
			payload.WriteString(line)
		}
		return io.NopCloser(io.LimitReader(strings.NewReader(payload.String()), int64(cat.Size(f)))), nil
	}))
	if err != nil {
		fail(err)
	}

	service := fbcache.NewSRM(guarded, cat).WithStore(st)
	mgr := fbcache.NewJobManager(service, fbcache.JobConfig{
		Workers:   3,
		Scheduler: fbcache.AgeLimitScheduler(fbcache.FCFSScheduler(), 8),
	})
	defer mgr.Close()

	var bytesRead atomic.Int64
	submit := func(name string, b fbcache.Bundle) <-chan fbcache.JobResult {
		done, err := mgr.Submit(fbcache.JobSpec{
			Bundle: b,
			Process: func() error {
				// The job really reads its staged inputs from disk.
				for _, f := range b {
					if cat.Size(f) > 6*fbcache.MB {
						continue // bypassed: not on the staging disk
					}
					rc, err := service.OpenStaged(f)
					if err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
					n, err := io.Copy(io.Discard, rc)
					rc.Close()
					if err != nil {
						return err
					}
					bytesRead.Add(n)
				}
				return nil
			},
		})
		if err != nil {
			fail(err)
		}
		return done
	}

	fmt.Println("submitting analysis jobs (3 workers, FCFS + age guard)...")
	var waits []<-chan fbcache.JobResult
	for i := 0; i < 6; i++ {
		waits = append(waits, submit("correlate", fbcache.NewBundle(events, tracks)))
		waits = append(waits, submit("calibrate", fbcache.NewBundle(tracks, calib)))
	}
	waits = append(waits, submit("export", fbcache.NewBundle(events, rawDump)))

	hits := 0
	for _, ch := range waits {
		res := <-ch
		if res.Err != nil {
			fail(res.Err)
		}
		if res.Hit {
			hits++
		}
	}

	snap := service.Stats()
	fmt.Printf("jobs completed    %d (%d bundle hits)\n", snap.Jobs, hits)
	fmt.Printf("byte miss ratio   %.4f\n", snap.ByteMissRatio)
	fmt.Printf("staging dir usage %v (cache accounting %v / %v)\n",
		st.DiskUsage(), snap.CacheUsed, snap.CacheCapacity)
	fmt.Printf("bytes read by jobs from staged files: %d\n", bytesRead.Load())
	if st.Contains(rawDump) {
		fail(fmt.Errorf("BUG: bypassed raw dump was cached"))
	}
	fmt.Println("raw-dump.bin was served pass-through and never touched the staging disk.")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "jobservice:", err)
	os.Exit(1)
}
