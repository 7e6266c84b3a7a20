package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is sorted in
// place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// usec converts a duration to float microseconds.
func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// runtimeSnap is the process-wide resource accounting taken before and
// after a timed phase: Go runtime counters plus OS CPU time.
type runtimeSnap struct {
	allocs   uint64  // heap objects allocated, tiny ones included
	gcCycles uint64  // completed GC cycles
	mutexSec float64 // time goroutines spent blocked on sync.Mutex/RWMutex
	gcPauses *metrics.Float64Histogram
	cpu      time.Duration // user + system CPU of the process
}

var snapSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func takeSnap() runtimeSnap {
	s := slices.Clone(snapSamples)
	metrics.Read(s)
	return runtimeSnap{
		allocs:   mallocs(),
		gcCycles: s[0].Value.Uint64(),
		mutexSec: s[1].Value.Float64(),
		gcPauses: s[2].Value.Float64Histogram(),
		cpu:      cpuTime(),
	}
}

// mallocs counts the heap objects the process has allocated. It stops the
// world to flush every P's counts, so it is exact where runtime/metrics'
// allocation count lags by whatever the Ps have cached and counts tiny
// objects only per 16-byte block.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runtimeDelta is what a timed phase cost the process.
type runtimeDelta struct {
	allocs     uint64
	gcCycles   uint64
	mutexSec   float64
	cpu        time.Duration
	gcPauseP99 float64 // seconds, from the pause histogram's bucket bounds
	gcPauses   uint64
}

func diffSnap(a, b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		allocs:   b.allocs - a.allocs,
		gcCycles: b.gcCycles - a.gcCycles,
		mutexSec: b.mutexSec - a.mutexSec,
		cpu:      b.cpu - a.cpu,
	}
	// Pause histogram: subtract bucket counts, then walk to the 99th
	// percentile and report that bucket's upper bound.
	counts := make([]uint64, len(b.gcPauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.gcPauses.Counts[i] - a.gcPauses.Counts[i]
		total += counts[i]
	}
	d.gcPauses = total
	if total > 0 {
		target := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				d.gcPauseP99 = b.gcPauses.Buckets[i+1]
				if math.IsInf(d.gcPauseP99, 1) {
					d.gcPauseP99 = b.gcPauses.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

// watch samples the process during a timed phase: live heap bytes every
// few milliseconds, keeping the peak, and process CPU time at every window
// boundary, so CPU per job can be summarised per window like the timings.
type watch struct {
	peak uint64
	cpu  []time.Duration // CPU time at t0 + i·window
	stop chan struct{}
	wg   sync.WaitGroup
}

func startWatch(t0 time.Time) *watch {
	w := &watch{stop: make(chan struct{}), cpu: []time.Duration{cpuTime()}}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			boundary := t0.Add(time.Duration(len(w.cpu)) * window)
			now := time.Now()
			if !now.Before(boundary) {
				w.cpu = append(w.cpu, cpuTime())
				continue
			}
			timer.Reset(min(5*time.Millisecond, boundary.Sub(now)))
			select {
			case <-w.stop:
				return
			case <-timer.C:
			}
		}
	}()
	return w
}

// done stops the sampler; peak and cpu are valid afterwards.
func (w *watch) done() {
	close(w.stop)
	w.wg.Wait()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latHist is a log-bucketed latency histogram with 0.1% relative bucket
// width: constant memory however many samples a run takes, and quantiles
// interpolated within a bucket so that they do not snap to bucket edges.
type latHist struct {
	counts []uint32
	n      int
}

const (
	histLogRes  = 0.001        // ln(1.001): bucket i covers [e^(i·res), e^((i+1)·res)) ns
	histBuckets = 25400        // reaches e^25.4 ns ≈ 100 s
	histMinNs   = float64(1.0) // everything below 1 ns lands in bucket 0
)

func (h *latHist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	ns := float64(d)
	i := 0
	if ns > histMinNs {
		i = int(math.Log(ns) / histLogRes)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUs returns the q-quantile in microseconds (0 when empty).
func (h *latHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo := math.Exp(float64(i) * histLogRes)
			hi := math.Exp(float64(i+1) * histLogRes)
			frac := (rank - seen + 0.5) / float64(c)
			return (lo + (hi-lo)*frac) / 1e3
		}
		seen += float64(c)
	}
	return math.Exp(float64(histBuckets)*histLogRes) / 1e3
}

// windowed keeps one histogram per timing window of a phase, so a
// quantile can be reported as the median of its per-window values: one
// window disturbed by a neighbour on the machine then moves the result
// little.
type windowed struct {
	win []latHist
}

func (w *windowed) add(window int, d time.Duration) {
	for len(w.win) <= window {
		w.win = append(w.win, latHist{})
	}
	w.win[window].add(d)
}

func (w *windowed) merge(o *windowed) {
	for i := range o.win {
		for len(w.win) <= i {
			w.win = append(w.win, latHist{})
		}
		w.win[i].merge(&o.win[i])
	}
}

// quantilesUs is each window's q-quantile, skipping windows past the
// first n and those with fewer than minSamples samples.
func (w *windowed) quantilesUs(q float64, n, minSamples int) []float64 {
	var per []float64
	for i := 0; i < n && i < len(w.win); i++ {
		if w.win[i].n >= minSamples {
			per = append(per, w.win[i].quantileUs(q))
		}
	}
	return per
}

// total merges every window into one histogram.
func (w *windowed) total() *latHist {
	var h latHist
	for i := range w.win {
		h.merge(&w.win[i])
	}
	return &h
}
