package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/cache"
	"fbcache/internal/obs"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
)

// probes is the traced run's instrumentation. Everything is installed from
// outside the program: a policy.Policy decorator, an obs.Tracer on the
// policy for OptCacheSelect rounds, a store.Source decorator, and dump
// sinks on the client and server span recorders.
//
// The policy-side fields are written under SRM.mu (every Admit is
// serialized there) and read after the server has shut down and Stats has
// taken SRM.mu again, which orders the writes before the reads.
type probes struct {
	admit        latHist
	admitTime    time.Duration
	admits       int64
	hits         int64
	reqBytes     int64
	loadedBytes  int64
	filesLoaded  int64
	filesEvicted int64
	reloads      int64  // loaded files that an earlier admission of the phase evicted
	evictedEver  []bool // by FileID

	sel *selectProbe

	srcMu  sync.Mutex
	source latHist // per file: time spent inside the source's Read calls

	serverSpans, clientSpans *spanSink

	// win, when set, also files each admission's latency under the timing
	// window it started in (counted in perWin), for the replay workload
	// whose stage is one simulated admission.
	win    *windowed
	perWin []int
	t0     time.Time
}

// reset clears the counters before a timed phase, including the record
// of evicted files, so reloads count evictions of the timed phase only.
func (p *probes) reset() {
	clear(p.evictedEver)
	p.admit, p.admitTime, p.admits, p.hits = latHist{}, 0, 0, 0
	p.reqBytes, p.loadedBytes, p.filesLoaded, p.filesEvicted, p.reloads = 0, 0, 0, 0, 0
	p.sel.rounds, p.sel.candidates = 0, 0
	p.srcMu.Lock()
	p.source = latHist{}
	p.srcMu.Unlock()
	p.perWin = nil
	p.serverSpans.reset()
	p.clientSpans.reset()
}

func newProbes(files int) *probes {
	return &probes{
		evictedEver: make([]bool, files),
		sel:         &selectProbe{},
		serverSpans: &spanSink{},
		clientSpans: &spanSink{},
	}
}

// timedPolicy decorates a policy.Policy, timing every Admit and keeping
// the cache movements its Result reports.
type timedPolicy struct {
	inner policy.Policy
	p     *probes
}

func (t *timedPolicy) Name() string        { return t.inner.Name() }
func (t *timedPolicy) Cache() *cache.Cache { return t.inner.Cache() }

func (t *timedPolicy) Admit(b bundle.Bundle) policy.Result {
	start := time.Now()
	res := t.inner.Admit(b)
	d := time.Since(start)
	p := t.p
	p.admit.add(d)
	if p.win != nil {
		w := int(start.Sub(p.t0) / window)
		p.win.add(w, d)
		for len(p.perWin) <= w {
			p.perWin = append(p.perWin, 0)
		}
		p.perWin[w]++
	}
	p.admitTime += d
	p.admits++
	if res.Hit {
		p.hits++
	}
	p.reqBytes += int64(res.BytesRequested)
	p.loadedBytes += int64(res.BytesLoaded)
	p.filesLoaded += int64(res.FilesLoaded)
	p.filesEvicted += int64(res.FilesEvicted)
	for _, f := range res.Loaded {
		if p.evictedEver[f] {
			p.reloads++
		}
	}
	for _, f := range res.Evicted {
		p.evictedEver[f] = true
	}
	return res
}

// selectProbe counts OptCacheSelect rounds and their candidate sets.
type selectProbe struct {
	obs.NopTracer
	rounds     int64
	candidates int64
}

func (s *selectProbe) SelectRound(e obs.SelectRoundEvent) {
	s.rounds++
	s.candidates += int64(e.Candidates)
}

// timedSource decorates a store.Source, timing the Read calls on each
// file it serves: the time the store spends waiting for source bytes.
type timedSource struct {
	inner *memSource
	p     *probes
}

func (t *timedSource) Open(f bundle.FileID) (io.ReadCloser, error) {
	rc, err := t.inner.Open(f)
	if err != nil {
		return nil, err
	}
	return &timedReader{rc: rc, p: t.p}, nil
}

type timedReader struct {
	rc io.ReadCloser
	p  *probes
	d  time.Duration
}

func (r *timedReader) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := r.rc.Read(b)
	r.d += time.Since(start)
	return n, err
}

func (r *timedReader) Close() error {
	r.p.srcMu.Lock()
	r.p.source.add(r.d)
	r.p.srcMu.Unlock()
	return r.rc.Close()
}

// spanSink is a span recorder's dump sink that keeps every span in memory;
// they are written out when the run ends.
type spanSink struct {
	obs.NopTracer
	mu sync.Mutex
	ev []obs.SpanEvent
}

func (s *spanSink) Span(e obs.SpanEvent) {
	s.mu.Lock()
	s.ev = append(s.ev, e)
	s.mu.Unlock()
}

// options makes every request an anomaly at the recorder, so the dump
// sink receives every span of every request.
func (s *spanSink) options() span.Options {
	return span.Options{SlowThreshold: time.Nanosecond, SampleEvery: 1, Dump: s}
}

func (s *spanSink) reset() {
	s.mu.Lock()
	s.ev = nil
	s.mu.Unlock()
}

func (s *spanSink) events() []obs.SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ev
}

// writeSpans writes the client and server spans of a traced run as JSONL
// (the format fbtrace reads) to path.
func writeSpans(path string, sinks ...*spanSink) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	sink := obs.NewJSONLSink(bw)
	for _, s := range sinks {
		for _, e := range s.events() {
			sink.Span(e)
		}
	}
	err = sink.Err()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanStats is the per-request breakdown of a traced serving run, joined
// across the client and server recorders by request ID.
type spanStats struct {
	serverStage, serverRelease []float64 // root durations, µs
	unattributed               []float64 // stage root minus its legs, µs
	wire                       []float64 // client rpc.stage minus server stage root, µs
	wait                       []float64 // stage.wait legs, µs
	store                      []float64 // stage.store legs of stages that loaded bytes, µs
	stages                     int
	waited                     int
}

func analyzeSpans(server, client []obs.SpanEvent) spanStats {
	type req struct {
		root, legs, store float64
		loaded            bool // the admission loaded bytes, so the store wrote
		isStage           bool
	}
	reqs := make(map[uint64]*req)
	get := func(id uint64) *req {
		r := reqs[id]
		if r == nil {
			r = &req{}
			reqs[id] = r
		}
		return r
	}
	var st spanStats
	for _, e := range server {
		us := e.DurSec * 1e6
		switch e.Op {
		case "stage":
			r := get(e.Req)
			r.root, r.isStage = us, true
			st.serverStage = append(st.serverStage, us)
		case "stage.wait":
			get(e.Req).legs += us
			st.wait = append(st.wait, us)
		case "stage.admit":
			r := get(e.Req)
			r.legs += us
			r.loaded = e.Bytes > 0
		case "stage.store":
			r := get(e.Req)
			r.legs += us
			r.store = us
		case "release":
			st.serverRelease = append(st.serverRelease, us)
		}
	}
	for _, r := range reqs {
		if r.isStage {
			st.stages++
			st.unattributed = append(st.unattributed, r.root-r.legs)
		}
		if r.loaded && r.store > 0 {
			st.store = append(st.store, r.store)
		}
	}
	st.waited = len(st.wait)
	for _, e := range client {
		if e.Op != "rpc.stage" {
			continue
		}
		if r := reqs[e.Req]; r != nil && r.isStage {
			st.wire = append(st.wire, e.DurSec*1e6-r.root)
		}
	}
	return st
}
