package span

import (
	"bufio"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbcache/internal/obs"
)

// Event converts a completed span to its trace form (see obs.SpanEvent):
// times become seconds since the recorder epoch, enums become their names.
func (s Span) Event() obs.SpanEvent {
	return obs.SpanEvent{
		At:     float64(s.End) / 1e9,
		Req:    uint64(s.Req),
		Span:   uint64(s.ID),
		Parent: uint64(s.Parent),
		Op:     s.Op.String(),
		DurSec: float64(s.End-s.Start) / 1e9,
		Bytes:  s.Bytes,
		Files:  int(s.Files),
		Hit:    s.Hit,
		Err:    s.Err.String(),
	}
}

// Options configures a Recorder. The zero value is usable: every field has
// a production default.
type Options struct {
	// Stripes is the number of independent ring/lock pairs; rounded up to a
	// power of two. Default 8. All spans of one request hash to one stripe,
	// so promotion never crosses stripe locks.
	Stripes int
	// PerStripe is each stripe's ring capacity, for both the recent ring
	// (all finished spans) and the kept ring (promoted requests).
	// Default 256 spans.
	PerStripe int
	// SlowThreshold is the root duration at or above which a request is an
	// anomaly, kept at full fidelity and dumped. Default 100ms.
	SlowThreshold time.Duration
	// SampleEvery keeps every N-th healthy request (head sampling by
	// request ID) so the flight recorder always holds baseline traffic, not
	// just anomalies. Default 16; 1 keeps everything.
	SampleEvery uint64
	// Dump receives every span of an anomalous request, root last, after
	// the request is promoted. Typically a JSONL sink (see FileDump). Dump
	// methods are called without any recorder lock held.
	Dump obs.Tracer
	// DumpCloser, if set, is closed exactly once by Recorder.Close — the
	// flush/close half of FileDump.
	DumpCloser io.Closer
}

// spanRing is a fixed-capacity overwrite ring of spans. Slots holding the
// zero Span (Op == OpNone) are empty: promotion steals a request's spans
// by zeroing them in place, leaving holes that readers skip.
type spanRing struct {
	buf  []Span
	next int
}

func (r *spanRing) push(s Span) (overwrote bool) {
	overwrote = r.buf[r.next].Op != OpNone
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	return overwrote
}

// appendTo copies the live spans oldest-first onto dst.
func (r *spanRing) appendTo(dst []Span) []Span {
	for i := r.next; i < len(r.buf); i++ {
		if r.buf[i].Op != OpNone {
			dst = append(dst, r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		if r.buf[i].Op != OpNone {
			dst = append(dst, r.buf[i])
		}
	}
	return dst
}

// take moves every span of req from the ring onto dst, oldest-first,
// zeroing the stolen slots.
func (r *spanRing) take(req RequestID, dst []Span) []Span {
	for i := r.next; i < len(r.buf); i++ {
		if r.buf[i].Op != OpNone && r.buf[i].Req == req {
			dst = append(dst, r.buf[i])
			r.buf[i] = Span{}
		}
	}
	for i := 0; i < r.next; i++ {
		if r.buf[i].Op != OpNone && r.buf[i].Req == req {
			dst = append(dst, r.buf[i])
			r.buf[i] = Span{}
		}
	}
	return dst
}

// stripe is one lock's worth of recorder state. Its mutex is a leaf in the
// repo lock hierarchy (DESIGN.md §10): the recorder never acquires another
// lock — in particular not the dump sink's — while holding it.
type stripe struct {
	mu      sync.Mutex
	recent  spanRing //fbvet:guardedby mu
	kept    spanRing //fbvet:guardedby mu
	scratch []Span   //fbvet:guardedby mu
	dropped int64    //fbvet:guardedby mu
}

// Recorder is an always-on flight recorder for request spans. Finished
// spans land in a lock-striped recent ring; when a request's root span
// finishes, tail sampling decides its fate: anomalous (error, or slower
// than SlowThreshold) and head-sampled requests are promoted — all their
// spans move to the kept ring, anomalies additionally streamed to the Dump
// sink — while the rest stay in the recent ring until overwritten.
//
// All methods are safe for concurrent use, and safe on a nil receiver
// (every method is a cheap no-op), so "tracing off" is the nil *Recorder.
type Recorder struct {
	epoch       time.Time
	slowNs      int64
	sampleEvery uint64
	closer      io.Closer

	// Lock-free instruments and immutable-after-New layout, declared ahead
	// of dumpMu: none of these are guarded by it.
	nextReq   atomic.Uint64
	nextSpan  atomic.Uint64
	inflight  atomic.Int64
	requests  atomic.Int64
	keptReqs  atomic.Int64
	anomalies atomic.Int64

	lat  [opCount]*obs.Histogram
	errs [opCount]atomic.Int64

	mask    uint64
	stripes []stripe

	// dumpMu serializes anomaly emission against Close, so the sink's
	// buffer is never flushed mid-write. Like the stripe locks it is a leaf
	// — except that the dump sink's own lock nests inside it, which is fine:
	// nothing else ever holds a sink lock first.
	dumpMu   sync.Mutex
	dump     obs.Tracer //fbvet:guardedby dumpMu
	closed   bool       //fbvet:guardedby dumpMu
	closeErr error      //fbvet:guardedby dumpMu
}

// Latency histogram layout: 50µs · 2^k for 24 buckets reaches ~7 minutes,
// covering loopback RPCs and pathological stalls alike with ≤2× relative
// error per bucket.
const (
	latStart   = 50e-6
	latFactor  = 2
	latBuckets = 24
)

// New builds a recorder. See Options for defaults.
func New(o Options) *Recorder {
	if o.Stripes <= 0 {
		o.Stripes = 8
	}
	n := 1
	for n < o.Stripes {
		n <<= 1
	}
	if o.PerStripe <= 0 {
		o.PerStripe = 256
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = 100 * time.Millisecond
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 16
	}
	r := &Recorder{
		epoch:       time.Now(),
		slowNs:      o.SlowThreshold.Nanoseconds(),
		sampleEvery: o.SampleEvery,
		dump:        o.Dump,
		closer:      o.DumpCloser,
		mask:        uint64(n - 1),
		stripes:     make([]stripe, n),
	}
	for i := range r.stripes {
		r.stripes[i].recent.buf = make([]Span, o.PerStripe)
		r.stripes[i].kept.buf = make([]Span, o.PerStripe)
	}
	// OpNone gets a histogram too — never exported, but a span started with
	// it (e.g. an unclassifiable wire op) must not crash the recorder.
	for op := OpNone; op < opCount; op++ {
		r.lat[op] = obs.NewExpHistogram(latStart, latFactor, latBuckets)
	}
	return r
}

// now is nanoseconds of monotonic wall clock since the recorder's epoch.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// StartRequest opens a request root span. With a zero ctx.Req (a fresh
// request arriving at this process) the recorder assigns the next request
// ID; a non-zero ctx.Req continues a request labeled elsewhere. ctx.Parent
// (if any) becomes the root's parent — the caller's span in another
// process. Nil recorder: returns the zero Active.
func (r *Recorder) StartRequest(ctx Context, op Op) Active {
	if r == nil {
		return Active{}
	}
	req := ctx.Req
	if req == 0 {
		req = RequestID(r.nextReq.Add(1))
	}
	r.inflight.Add(1)
	return Active{rec: r, root: true, span: Span{
		Req:    req,
		ID:     SpanID(r.nextSpan.Add(1)),
		Parent: ctx.Parent,
		Op:     op,
		Start:  r.now(),
	}}
}

// StartChild opens a span nested under ctx. Under the zero Context (no
// request being traced) it returns the zero Active, so instrumented legs
// cost one branch when called outside any request. Nil recorder: same.
func (r *Recorder) StartChild(ctx Context, op Op) Active {
	if r == nil || ctx.Req == 0 {
		return Active{}
	}
	return Active{rec: r, span: Span{
		Req:    ctx.Req,
		ID:     SpanID(r.nextSpan.Add(1)),
		Parent: ctx.Parent,
		Op:     op,
		Start:  r.now(),
	}}
}

// finish records a completed span: latency and error accounting, then ring
// placement — and, for roots, the tail-sampling decision.
func (r *Recorder) finish(s Span, root bool) {
	durNs := s.End - s.Start
	r.lat[s.Op].Observe(float64(durNs) / 1e9)
	if s.Err != ErrNone {
		r.errs[s.Op].Add(1)
	}
	st := &r.stripes[uint64(s.Req)&r.mask]
	if !root {
		st.mu.Lock()
		if st.recent.push(s) {
			st.dropped++
		}
		st.mu.Unlock()
		return
	}

	r.inflight.Add(-1)
	r.requests.Add(1)
	anomalous := s.Err != ErrNone || durNs >= r.slowNs
	if !anomalous && uint64(s.Req)%r.sampleEvery != 0 {
		st.mu.Lock()
		if st.recent.push(s) {
			st.dropped++
		}
		st.mu.Unlock()
		return
	}

	// Promote: steal the request's leg spans from the recent ring, append
	// the root, move everything to the kept ring. scratch is reused across
	// promotions so the steady state allocates nothing.
	var dumpCopy []Span
	st.mu.Lock()
	st.scratch = st.recent.take(s.Req, st.scratch[:0])
	st.scratch = append(st.scratch, s)
	for _, ks := range st.scratch {
		if st.kept.push(ks) {
			st.dropped++
		}
	}
	if anomalous {
		// The sink runs outside the stripe lock (it takes its own locks and
		// does I/O); anomalies are rare, so this copy is off the hot path.
		dumpCopy = append(dumpCopy, st.scratch...)
	}
	st.mu.Unlock()

	r.keptReqs.Add(1)
	if anomalous {
		r.anomalies.Add(1)
		r.dumpMu.Lock()
		if r.dump != nil {
			for _, ds := range dumpCopy {
				r.dump.Span(ds.Event())
			}
		}
		r.dumpMu.Unlock()
	}
}

// Counters is the recorder's headline accounting.
type Counters struct {
	// Requests counts finished request roots; Kept the subset promoted to
	// the kept ring; Anomalies the subset promoted for error/slowness.
	Requests  int64 `json:"requests"`
	Kept      int64 `json:"kept"`
	Anomalies int64 `json:"anomalies"`
	// Dropped counts spans overwritten in either ring before inspection.
	Dropped int64 `json:"dropped"`
	// Inflight is the number of request roots started but not finished.
	Inflight int64 `json:"inflight"`
}

// Counters snapshots the recorder's accounting. Safe on nil (all zeros).
func (r *Recorder) Counters() Counters {
	if r == nil {
		return Counters{}
	}
	c := Counters{
		Requests:  r.requests.Load(),
		Kept:      r.keptReqs.Load(),
		Anomalies: r.anomalies.Load(),
		Inflight:  r.inflight.Load(),
	}
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		c.Dropped += st.dropped
		st.mu.Unlock()
	}
	return c
}

// Kept returns the promoted spans across all stripes, ordered by start
// time (ties by span ID) — the full-fidelity view /debug/flight serves.
// Safe on nil (empty).
func (r *Recorder) Kept() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		out = st.kept.appendTo(out)
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Close flushes and closes the dump sink (Options.DumpCloser), exactly
// once; later calls return the first result. Safe on nil. Recorder methods
// remain usable after Close — spans keep landing in the rings, only the
// dump stream is gone — so a draining server can finish in-flight requests
// without racing shutdown.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if !r.closed {
		r.closed = true
		r.dump = nil
		if r.closer != nil {
			r.closeErr = r.closer.Close()
		}
	}
	return r.closeErr
}

// fileSink is FileDump's closer: flush the buffer, then close the file.
type fileSink struct {
	f *os.File
	w *bufio.Writer
}

// Close implements io.Closer.
func (fs *fileSink) Close() error {
	ferr := fs.w.Flush()
	cerr := fs.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// FileDump creates (truncating) a JSONL anomaly sink writing to path,
// buffered. Wire the two return values into Options.Dump and
// Options.DumpCloser; the closer flushes the buffer, so tail events
// survive shutdown only if Recorder.Close runs (see srm.Server.Shutdown).
func FileDump(path string) (*obs.JSONLSink, io.Closer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return obs.NewJSONLSink(w), &fileSink{f: f, w: w}, nil
}
