// Command srmbench load-tests an srmd server over the TCP protocol: it
// registers a synthetic §5.1 workload's files, then drives concurrent
// clients staging and releasing bundles, reporting client-observed latency
// percentiles and server-side cache statistics.
//
//	srmd -listen :7070 -cache-gb 4 &
//	srmbench -addr localhost:7070 -clients 8 -jobs 200
//
// With -degraded it instead runs the (serverless) degraded-mode experiment:
// the timed simulator staging across a 2-site grid with a mid-run
// remote-archive outage, under rising per-transfer failure rates, tabling
// hit ratio, mean job slowdown, outage recovery time and re-replication
// bytes per policy. With -replication it sweeps the adaptive planner's
// byte budget over the same outage (static grid vs rising budgets). Both
// tables are deterministic for a given -seed:
//
//	srmbench -degraded
//	srmbench -degraded -jobs 500 -seed 7 -csv
//	srmbench -replication
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/experiment"
	"fbcache/internal/obs"
	"fbcache/internal/srm"
	"fbcache/internal/stats"
	"fbcache/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:7070", "srmd server address")
		clients    = flag.Int("clients", 4, "concurrent client connections")
		jobs       = flag.Int("jobs", 100, "stage/release operations per client (per simulation point with -degraded)")
		files      = flag.Int("files", 200, "file pool size")
		requests   = flag.Int("requests", 100, "request pool size")
		cacheGB    = flag.Float64("cache-gb", 4, "reference cache size for workload sizing (match the server)")
		popularity = flag.String("popularity", "zipf", "uniform or zipf")
		seed       = flag.Int64("seed", 1, "workload seed")
		retries    = flag.Int("retries", 1, "client stage attempts when the server answers busy/retryable (1 = no retry)")
		degraded   = flag.Bool("degraded", false, "run the degraded-mode fault experiment instead of benching a server")
		replSweep  = flag.Bool("replication", false, "run the replication-budget recovery experiment instead of benching a server")
		csv        = flag.Bool("csv", false, "with -degraded/-replication: emit CSV instead of the aligned table")
		traceOut   = flag.String("trace-out", "", "write a JSONL event trace: simulator events with -degraded/-replication, client-observed job records otherwise")
	)
	flag.Parse()

	var tracer *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		tracer = obs.NewJSONLSink(f)
		defer func() {
			if err := tracer.Err(); err != nil {
				fail(fmt.Errorf("trace-out: %w", err))
			}
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("trace-out: %w", err))
			}
		}()
	}

	if *degraded || *replSweep {
		if err := runExperiment(*replSweep, *jobs, *clients, *files, *requests, *cacheGB, *seed, *csv, tracer, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	pop := workload.Zipf
	if *popularity == "uniform" {
		pop = workload.Uniform
	}
	w, err := workload.Generate(workload.Spec{
		Seed:           *seed,
		CacheSize:      bundle.Size(*cacheGB * float64(bundle.GB)),
		NumFiles:       *files,
		MinFileSize:    bundle.MB,
		MaxFilePct:     0.05,
		NumRequests:    *requests,
		MaxBundleFiles: 6,
		MaxBundleFrac:  0.25,
		Popularity:     pop,
		ZipfS:          1,
		Jobs:           *clients * *jobs,
	})
	if err != nil {
		fail(err)
	}

	sum, err := runBench(*addr, w, *clients, *jobs, *retries, tracer)
	if err != nil {
		fail(err)
	}
	sum.print(os.Stdout)
}

// runExperiment runs one of the serverless fault experiments — the
// replication-budget recovery sweep (replication=true) or the degraded-mode
// failure-rate sweep — and writes the table. jobs is per simulation point;
// the remaining knobs mirror the bench workload so all modes describe the
// same traffic.
func runExperiment(replication bool, jobs, clients, files, requests int, cacheGB float64, seed int64, csv bool, tracer *obs.JSONLSink, out *os.File) error {
	cfg := experiment.DefaultConfig()
	cfg.Seed = seed
	cfg.Jobs = jobs * clients
	cfg.NumFiles = files
	cfg.NumRequests = requests
	cfg.CacheSize = bundle.Size(cacheGB * float64(bundle.GB))
	cfg.Progress = os.Stderr
	if tracer != nil {
		cfg.Tracer = tracer
	}
	run := cfg.DegradedMode
	if replication {
		run = cfg.ReplicationStudy
	}
	t, err := run()
	if err != nil {
		return err
	}
	if csv {
		return t.CSV(out)
	}
	return t.Render(out)
}

// benchSummary aggregates a load-test run.
type benchSummary struct {
	ops        int
	errors     int
	elapsed    time.Duration
	latencies  []float64 // seconds per stage+release
	serverSnap srm.Snapshot
}

// runBench registers the workload's files on the server and drives the
// client fleet. Each client's jobs are a disjoint slice of w.Jobs.
// stageAttempts >= 2 retries busy/retryable server answers with the
// server's own retry-after pacing. tracer, when non-nil, receives one
// client-observed JobServed record per operation (At is wall seconds since
// the bench started — this is a live load test, not a simulation).
func runBench(addr string, w *workload.Workload, clients, jobsPerClient, stageAttempts int, tracer *obs.JSONLSink) (*benchSummary, error) {
	setup, err := srm.Dial(addr)
	if err != nil {
		return nil, err
	}
	for _, f := range w.Catalog.Files() {
		if err := setup.AddFile(w.Catalog.Name(f.ID), f.Size); err != nil {
			_ = setup.Close() // the AddFile error is the one worth returning
			return nil, err
		}
	}

	names := func(b bundle.Bundle) []string {
		out := make([]string, len(b))
		for i, id := range b {
			out[i] = w.Catalog.Name(id)
		}
		return out
	}

	sum := &benchSummary{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := srm.Dial(addr)
			if err != nil {
				mu.Lock()
				sum.errors++
				mu.Unlock()
				return
			}
			defer conn.Close()
			for j := 0; j < jobsPerClient; j++ {
				idx := c*jobsPerClient + j
				if idx >= len(w.Jobs) {
					return
				}
				b := w.Requests[w.Jobs[idx]]
				t0 := time.Now()
				token, hit, _, err := conn.StageRetry(stageAttempts, names(b)...)
				if err == nil {
					err = conn.Release(token)
				}
				lat := time.Since(t0).Seconds()
				mu.Lock()
				sum.ops++
				if err != nil {
					sum.errors++
				} else {
					sum.latencies = append(sum.latencies, lat)
				}
				mu.Unlock()
				if tracer != nil && err == nil {
					tracer.JobServed(obs.JobServedEvent{
						At: time.Since(start).Seconds(), Job: idx, Hit: hit,
						ResponseSec:    lat,
						BytesRequested: int64(b.TotalSize(w.Catalog.SizeFunc())),
					})
				}
			}
		}(c)
	}
	wg.Wait()
	sum.elapsed = time.Since(start)

	snap, err := setup.Stats()
	_ = setup.Close() // stats already fetched; nothing depends on the close
	if err != nil {
		return nil, err
	}
	sum.serverSnap = snap
	sort.Float64s(sum.latencies)
	return sum, nil
}

func (s *benchSummary) print(out *os.File) {
	fmt.Fprintf(out, "operations        %d (%d errors) in %v\n", s.ops, s.errors, s.elapsed.Round(time.Millisecond))
	if s.elapsed > 0 {
		fmt.Fprintf(out, "throughput        %.1f ops/s\n", float64(s.ops)/s.elapsed.Seconds())
	}
	if len(s.latencies) > 0 {
		fmt.Fprintf(out, "latency p50       %.3f ms\n", 1000*stats.Quantile(s.latencies, 0.5))
		fmt.Fprintf(out, "latency p95       %.3f ms\n", 1000*stats.Quantile(s.latencies, 0.95))
		fmt.Fprintf(out, "latency p99       %.3f ms\n", 1000*stats.Quantile(s.latencies, 0.99))
	}
	fmt.Fprintf(out, "server policy     %s\n", s.serverSnap.Policy)
	fmt.Fprintf(out, "server hit ratio  %.4f\n", s.serverSnap.HitRatio)
	fmt.Fprintf(out, "server byte miss  %.4f\n", s.serverSnap.ByteMissRatio)
	fmt.Fprintf(out, "server cache      %v / %v\n", s.serverSnap.CacheUsed, s.serverSnap.CacheCapacity)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "srmbench:", err)
	os.Exit(1)
}
