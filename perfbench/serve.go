package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
	"fbcache/internal/srm"
	"fbcache/internal/store"
	"fbcache/internal/workload"
)

// instance is one system under test for a serving workload: an SRM
// configured as cmd/srmd configures it, served over loopback TCP, with the
// workload's clients connected and its catalog registered.
type instance struct {
	def   workloadDef
	w     *workload.Workload
	names [][]string // file names of each pool request
	opt   *core.OptFileBundle
	svc   *srm.SRM
	srv   *srm.Server
	cl    []*srm.Client
	st    *store.Store
	src   *memSource
	dir   string
	probe *probes // nil in untraced runs
	warm  *phase  // what the warm-up produced
}

// runOpts selects what a phase installs around the program.
type runOpts struct {
	// traced installs the per-layer decorators and span sinks.
	traced bool
	// wrap, when set, decorates the policy (the attribution self-test
	// slows Admit with it).
	wrap func(policy.Policy) policy.Policy
}

// newInstance boots the server, connects the clients and registers the
// workload's files over the wire, as a grid site would with srmd.
func newInstance(def workloadDef, w *workload.Workload, o runOpts) (*instance, error) {
	in := &instance{def: def, w: w}
	cat := bundle.NewCatalog()
	in.opt = core.New(def.spec.CacheSize, cat.SizeFunc(), def.coreOpts)
	var pol policy.Policy = policy.WrapOptFileBundle(in.opt)
	spanOpts := span.Options{SlowThreshold: 100 * time.Millisecond} // srmd's -slow default
	if o.wrap != nil {
		pol = o.wrap(pol)
	}
	var clientRec *span.Recorder
	if o.traced {
		in.probe = newProbes(w.Catalog.Len())
		in.opt.SetTracer(in.probe.sel)
		pol = &timedPolicy{inner: pol, p: in.probe}
		spanOpts = in.probe.serverSpans.options()
		clientRec = span.New(in.probe.clientSpans.options())
	}
	rec := span.New(spanOpts)
	in.svc = srm.New(pol, cat).WithSpans(rec)
	if def.store {
		dir, err := os.MkdirTemp(tmpRoot, def.name+"-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		in.dir = dir
		in.src = newMemSource(w)
		var src store.Source = in.src
		if o.traced {
			src = &timedSource{inner: in.src, p: in.probe}
		}
		if in.st, err = store.New(dir, src); err != nil {
			in.close()
			return nil, err
		}
		in.svc.WithStore(in.st)
	}
	srv, err := srm.Serve(in.svc, "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.srv = srv
	srv.CloseOnShutdown(rec)
	for i := 0; i < def.conns; i++ {
		c, err := srm.Dial(srv.Addr())
		if err != nil {
			in.close()
			return nil, err
		}
		in.cl = append(in.cl, c.WithSpans(clientRec))
	}
	for id := 0; id < w.Catalog.Len(); id++ {
		f := bundle.FileID(id)
		if err := in.cl[0].AddFile(w.Catalog.Name(f), w.Catalog.Size(f)); err != nil {
			in.close()
			return nil, fmt.Errorf("register: %w", err)
		}
	}
	in.names = make([][]string, len(w.Requests))
	for r, b := range w.Requests {
		for _, f := range b {
			in.names[r] = append(in.names[r], w.Catalog.Name(f))
		}
	}
	return in, nil
}

// close disconnects the clients, stops the server (which waits for every
// connection handler to exit) and removes the store directory.
func (in *instance) close() {
	for _, c := range in.cl {
		_ = c.Close() // teardown; the server side drops the lease either way
	}
	if in.srv != nil {
		_ = in.srv.Shutdown(5 * time.Second) // clients are gone; nothing left to drain
		in.svc.Close()
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir) // scratch under .bench_build; a leftover is harmless
	}
}

// phase is what one run of jobs produced, as the clients observed it.
type phase struct {
	elapsed   time.Duration
	windows   int
	jobs      int // jobs whose stage succeeded
	attempted int // operations: stages, reads and releases
	failed    int
	firstErr  string

	hits        int64
	reqBytes    int64
	loadedBytes int64

	perWindow []int // jobs started in each window
	stage     windowed
	job       windowed
	release   windowed

	reads     latHist // one OpenStaged+read of a whole file
	readBytes int64
	readTime  time.Duration
	badReads  int // reads that returned the wrong size or content
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = err.Error()
	}
}

func (p *phase) merge(o *phase) {
	p.jobs += o.jobs
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == "" {
		p.firstErr = o.firstErr
	}
	p.hits += o.hits
	p.reqBytes += o.reqBytes
	p.loadedBytes += o.loadedBytes
	for i, n := range o.perWindow {
		for len(p.perWindow) <= i {
			p.perWindow = append(p.perWindow, 0)
		}
		p.perWindow[i] += n
	}
	p.stage.merge(&o.stage)
	p.job.merge(&o.job)
	p.release.merge(&o.release)
	p.reads.merge(&o.reads)
	p.readBytes += o.readBytes
	p.readTime += o.readTime
	p.badReads += o.badReads
}

// window is the length of one timing window.
const window = time.Second

// drive runs jobs in a closed loop, one outstanding job per connection:
// each connection claims the next job index, stages its bundle, reads
// every file when the workload has a store, releases, and claims the next.
// It stops after limit jobs (limit > 0) or once dur has passed since t0
// (dur > 0). It returns the phase and the number of jobs claimed, which
// are exactly jobs 0..n-1 of pick.
func (in *instance) drive(pick func(i int) int, limit int, dur time.Duration, t0 time.Time) (*phase, int) {
	var next atomic.Int64
	parts := make([]phase, len(in.cl))
	var wg sync.WaitGroup
	for c := range in.cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			var buf []byte
			if in.st != nil {
				buf = make([]byte, in.src.maxSize)
			}
			for {
				if dur > 0 && time.Since(t0) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				in.job(in.cl[c], pick(i), p, buf, t0)
			}
		}(c)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(t0)}
	for c := range parts {
		out.merge(&parts[c])
	}
	out.windows = int(dur / window)
	claimed := int(next.Load())
	if limit > 0 && claimed > limit {
		claimed = limit
	}
	return out, claimed
}

// job runs one stage → read → release cycle for pool request r and
// records it in p under the window its stage started in.
func (in *instance) job(c *srm.Client, r int, p *phase, buf []byte, t0 time.Time) {
	start := time.Now()
	win := int(start.Sub(t0) / window)
	p.attempted++
	token, hit, loaded, err := c.Stage(in.names[r]...)
	staged := time.Now()
	if err != nil {
		p.fail(err)
		return
	}
	for _, f := range in.w.Requests[r] {
		if in.st == nil {
			break
		}
		p.attempted++
		in.read(f, p, buf)
	}
	relStart := time.Now()
	p.attempted++
	if err := c.Release(token); err != nil {
		p.fail(err)
	}
	end := time.Now()

	p.jobs++
	if hit {
		p.hits++
	}
	p.reqBytes += int64(in.w.Requests[r].TotalSize(in.w.Catalog.SizeFunc()))
	p.loadedBytes += int64(loaded)
	for len(p.perWindow) <= win {
		p.perWindow = append(p.perWindow, 0)
	}
	p.perWindow[win]++
	p.stage.add(win, staged.Sub(start))
	p.release.add(win, end.Sub(relStart))
	p.job.add(win, end.Sub(start))
}

// read reads staged file f whole through SRM.OpenStaged and checks its
// size and content against the source.
func (in *instance) read(f bundle.FileID, p *phase, buf []byte) {
	start := time.Now()
	rc, err := in.svc.OpenStaged(f)
	if err != nil {
		p.fail(err)
		return
	}
	n, err := io.ReadFull(rc, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // the file is shorter than the buffer, as expected
	}
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	d := time.Since(start)
	if err != nil {
		p.fail(err)
		return
	}
	p.reads.add(d)
	p.readBytes += int64(n)
	p.readTime += d
	if want := in.src.content(f); !bytes.Equal(buf[:n], want) {
		p.badReads++
		p.fail(fmt.Errorf("read file %d: %d bytes, want %d bytes of source content", f, n, len(want)))
	}
}

// memSource is the deterministic in-memory store.Source behind staged: a
// seeded random blob, of which file f's content is a slice at an offset
// derived from f, as long as the catalog says f is.
type memSource struct {
	blob    []byte
	maxSize int
	sizeOf  bundle.SizeFunc
}

func newMemSource(w *workload.Workload) *memSource {
	maxSize := 0
	for _, f := range w.Catalog.Files() {
		maxSize = max(maxSize, int(f.Size))
	}
	blob := make([]byte, 2*maxSize)
	rand.New(rand.NewSource(w.Spec.Seed)).Read(blob)
	return &memSource{blob: blob, maxSize: maxSize, sizeOf: w.Catalog.SizeFunc()}
}

func (m *memSource) content(f bundle.FileID) []byte {
	off := int(uint64(f) * 2654435761 % uint64(m.maxSize))
	return m.blob[off : off+int(m.sizeOf(f))]
}

// Open implements store.Source.
func (m *memSource) Open(f bundle.FileID) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(m.content(f))), nil
}
