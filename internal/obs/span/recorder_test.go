package span

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fbcache/internal/obs"
)

// slowOpts makes every request anomalous (SlowThreshold 1ns) so tests can
// rely on promotion without sleeping.
func slowOpts() Options {
	return Options{Stripes: 2, PerStripe: 32, SlowThreshold: time.Nanosecond, SampleEvery: 1 << 62}
}

// serveOne runs one synthetic request through rec: a root with a wait and
// an admit leg, finishing with err.
func serveOne(rec *Recorder, ctx Context, err ErrCode) RequestID {
	root := rec.StartRequest(ctx, OpStage)
	w := rec.StartChild(root.Context(), OpStageWait)
	w.Finish(ErrNone)
	a := rec.StartChild(root.Context(), OpStageAdmit)
	a.SetBytes(512)
	a.SetFiles(3)
	a.SetHit(true)
	a.Finish(err)
	req := root.Req()
	root.Finish(err)
	return req
}

// spanSink captures dumped spans in emission order; every other event is
// dropped.
type spanSink struct {
	obs.NopTracer
	mu    sync.Mutex
	spans []obs.SpanEvent
}

func (s *spanSink) Span(e obs.SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, e)
}

func (s *spanSink) events() []obs.SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.SpanEvent(nil), s.spans...)
}

func TestAnomalousRequestPromotedAndDumped(t *testing.T) {
	dump := &spanSink{}
	o := slowOpts()
	o.Dump = dump
	rec := New(o)

	req := serveOne(rec, Context{}, ErrNone) // slow (threshold 1ns) → anomalous

	kept := rec.Kept()
	if len(kept) != 3 {
		t.Fatalf("kept %d spans, want 3 (root + 2 legs)", len(kept))
	}
	var root *Span
	for i := range kept {
		if kept[i].Req != req {
			t.Errorf("kept span has req %d, want %d", kept[i].Req, req)
		}
		if kept[i].Op == OpStage {
			root = &kept[i]
		}
	}
	if root == nil {
		t.Fatal("no root span kept")
	}
	for i := range kept {
		if kept[i].Op != OpStage && kept[i].Parent != root.ID {
			t.Errorf("%s span parented to %d, want root %d", kept[i].Op, kept[i].Parent, root.ID)
		}
		if kept[i].End < kept[i].Start {
			t.Errorf("%s span ends before it starts", kept[i].Op)
		}
	}
	admit := kept[2] // Kept sorts by start: root, wait, admit
	if admit.Op != OpStageAdmit || admit.Bytes != 512 || admit.Files != 3 || !admit.Hit {
		t.Errorf("admit attributes lost: %+v", admit)
	}

	dumped := dump.events()
	if got := len(dumped); got != 3 {
		t.Fatalf("dump sink got %d events, want 3", got)
	}
	if last := dumped[2]; last.Op != "stage" {
		t.Fatalf("dump order: last event %+v, want the stage root", last)
	}

	c := rec.Counters()
	if c.Requests != 1 || c.Kept != 1 || c.Anomalies != 1 || c.Inflight != 0 {
		t.Errorf("counters = %+v, want 1 request, 1 kept, 1 anomaly, 0 inflight", c)
	}
}

func TestErrorRequestIsAnomalous(t *testing.T) {
	rec := New(Options{SlowThreshold: time.Hour, SampleEvery: 1 << 62})
	serveOne(rec, Context{}, ErrOther)
	if c := rec.Counters(); c.Anomalies != 1 || c.Kept != 1 {
		t.Errorf("counters = %+v, want the errored request promoted", c)
	}
	if got := rec.OpErrors(OpStage); got != 1 {
		t.Errorf("OpErrors(OpStage) = %d, want 1", got)
	}
	kept := rec.Kept()
	if len(kept) == 0 || kept[len(kept)-1].Err != ErrOther {
		t.Errorf("kept root does not carry ErrOther: %+v", kept)
	}
}

func TestHeadSamplingKeepsEveryNth(t *testing.T) {
	rec := New(Options{Stripes: 1, PerStripe: 512, SlowThreshold: time.Hour, SampleEvery: 4})
	for i := 0; i < 16; i++ {
		serveOne(rec, Context{}, ErrNone)
	}
	c := rec.Counters()
	if c.Requests != 16 {
		t.Fatalf("requests = %d, want 16", c.Requests)
	}
	// Request IDs run 1..16; IDs 4, 8, 12, 16 sample in.
	if c.Kept != 4 || c.Anomalies != 0 {
		t.Errorf("kept/anomalies = %d/%d, want 4/0", c.Kept, c.Anomalies)
	}
	for _, s := range rec.Kept() {
		if uint64(s.Req)%4 != 0 {
			t.Errorf("kept span from unsampled request %d", s.Req)
		}
	}
}

func TestDisabledPathIsNoOp(t *testing.T) {
	var rec *Recorder // nil = tracing off
	root := rec.StartRequest(Context{}, OpStage)
	if root.OK() {
		t.Fatal("nil recorder produced a live span")
	}
	child := rec.StartChild(root.Context(), OpStageAdmit)
	child.SetBytes(1)
	child.SetFiles(1)
	child.SetHit(true)
	child.AdoptRequest(9)
	child.Finish(ErrOther)
	root.Finish(ErrNone)
	if c := rec.Counters(); c != (Counters{}) {
		t.Errorf("nil counters = %+v, want zero", c)
	}
	if rec.Kept() != nil {
		t.Error("nil recorder kept spans")
	}
	if err := rec.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
	if got := rec.OpLatencyQuantile(OpStage, 0.5); got != 0 {
		t.Errorf("nil quantile = %g, want 0", got)
	}

	// An enabled recorder with no request context is equally silent: legs
	// outside a request trace nothing.
	live := New(slowOpts())
	c2 := live.StartChild(Context{}, OpStageAdmit)
	if c2.OK() {
		t.Fatal("StartChild under the zero Context is live")
	}
	c2.Finish(ErrNone)
	if c := live.Counters(); c.Requests != 0 {
		t.Errorf("zero-context child recorded a request: %+v", c)
	}
}

func TestAdoptRequestRelabelsRoot(t *testing.T) {
	rec := New(slowOpts())
	root := rec.StartRequest(Context{}, OpRPCStage)
	root.AdoptRequest(77)
	root.Finish(ErrNone)
	kept := rec.Kept()
	if len(kept) != 1 || kept[0].Req != 77 {
		t.Fatalf("kept = %+v, want one span with req 77", kept)
	}
}

func TestContextPropagation(t *testing.T) {
	rec := New(slowOpts())
	// A request continuing a wire context keeps the upstream request ID and
	// parents under the upstream span.
	root := rec.StartRequest(Context{Req: 5, Parent: 99}, OpStage)
	if root.Req() != 5 {
		t.Errorf("root req = %d, want wire req 5", root.Req())
	}
	ctx := root.Context()
	if ctx.Req != 5 || ctx.Parent == 0 {
		t.Errorf("root context = %+v, want req 5 and a parent span", ctx)
	}
	root.Finish(ErrNone)
	kept := rec.Kept()
	if len(kept) != 1 || kept[0].Parent != 99 {
		t.Fatalf("root parent = %+v, want wire parent 99", kept)
	}
}

func TestRingOverwriteCountsDropped(t *testing.T) {
	o := slowOpts()
	o.Stripes = 1
	o.PerStripe = 4
	rec := New(o)
	for i := 0; i < 12; i++ {
		serveOne(rec, Context{}, ErrNone) // 3 spans per request, ring holds 4
	}
	if c := rec.Counters(); c.Dropped == 0 {
		t.Error("overflowing a 4-slot kept ring dropped nothing")
	}
}

func TestExportTo(t *testing.T) {
	rec := New(slowOpts())
	reg := obs.NewRegistry()
	rec.ExportTo(reg)

	snap := reg.Snapshot()
	// Idle recorder: quantile gauges read 0, never NaN.
	if m, ok := snap.Get(`fbcache_op_latency_p99_seconds{op="stage"}`); !ok || m.Value != 0 {
		t.Fatalf("idle p99 = %+v (ok=%v), want 0", m, ok)
	}

	serveOne(rec, Context{}, ErrOther)
	snap = reg.Snapshot()
	if m, ok := snap.Get(`fbcache_op_latency_seconds{op="stage"}`); !ok || m.Count != 1 {
		t.Errorf("stage histogram = %+v (ok=%v), want 1 observation", m, ok)
	}
	if m, ok := snap.Get(`fbcache_op_errors_total{op="stage"}`); !ok || m.Value != 1 {
		t.Errorf("stage errors = %+v (ok=%v), want 1", m, ok)
	}
	if m, ok := snap.Get("fbcache_flight_anomalies_total"); !ok || m.Value != 1 {
		t.Errorf("anomalies = %+v (ok=%v), want 1", m, ok)
	}
	if m, ok := snap.Get(`fbcache_op_latency_p50_seconds{op="stage"}`); !ok || m.Value <= 0 {
		t.Errorf("observed p50 = %+v (ok=%v), want > 0", m, ok)
	}
	if got := rec.OpLatencyQuantile(OpStage, 0.5); got <= 0 {
		t.Errorf("OpLatencyQuantile = %g, want > 0", got)
	}
	// ExportTo on nil registers nothing and does not panic.
	var nilRec *Recorder
	nilRec.ExportTo(obs.NewRegistry())
}

func TestFileDumpFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	sink, closer, err := FileDump(path)
	if err != nil {
		t.Fatal(err)
	}
	o := slowOpts()
	o.Dump, o.DumpCloser = sink, closer
	rec := New(o)

	serveOne(rec, Context{}, ErrNone)

	// The dump is buffered: a handful of spans must still be sitting in the
	// bufio buffer, not on disk — this is exactly the tail a shutdown
	// without Close would lose.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatalf("dump hit disk before Close (%d bytes); buffering assumption broken", len(raw))
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("flushed dump has %d lines, want 3", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"kind":"span",`) {
			t.Errorf("dump line is not a span record: %s", l)
		}
	}

	// Close is idempotent, and a recorder outliving its dump keeps working.
	if err := rec.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	serveOne(rec, Context{}, ErrNone)
	if c := rec.Counters(); c.Requests != 2 {
		t.Errorf("post-Close request not recorded: %+v", c)
	}
}

func TestConcurrentRequests(t *testing.T) {
	rec := New(Options{Stripes: 4, PerStripe: 128, SlowThreshold: time.Nanosecond, Dump: &spanSink{}})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := ErrNone
				if i%7 == 0 {
					err = ErrOther
				}
				serveOne(rec, Context{}, err)
			}
		}(w)
	}
	wg.Wait()
	c := rec.Counters()
	if c.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", c.Requests, workers*perWorker)
	}
	if c.Inflight != 0 {
		t.Errorf("inflight = %d after all requests finished", c.Inflight)
	}
	if c.Anomalies != c.Requests {
		t.Errorf("anomalies = %d, want every request (threshold 1ns)", c.Anomalies)
	}
	// Kept is bounded by ring capacity; everything retained must be whole
	// spans with sane ordering.
	for _, s := range rec.Kept() {
		if s.Op == OpNone || s.End < s.Start || s.Req == 0 {
			t.Fatalf("corrupt kept span: %+v", s)
		}
	}
}

// BenchmarkSpanDisabled is the CI-gated proof that spans cost nothing when
// off: the full instrumentation shape — request root, two child legs,
// attributes, contexts — against a nil recorder must be 0 allocs/op.
func BenchmarkSpanDisabled(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := rec.StartRequest(Context{}, OpStage)
		w := rec.StartChild(root.Context(), OpStageWait)
		w.Finish(ErrNone)
		a := rec.StartChild(root.Context(), OpStageAdmit)
		a.SetBytes(512)
		a.SetFiles(3)
		a.SetHit(true)
		a.Finish(ErrNone)
		root.Finish(ErrNone)
	}
}

// BenchmarkSpanEnabled is the recording path: healthy unsampled requests
// (ring push only — the steady state under load).
func BenchmarkSpanEnabled(b *testing.B) {
	rec := New(Options{SlowThreshold: time.Hour, SampleEvery: 1 << 62})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rec.StartRequest(Context{}, OpStage)
		w := rec.StartChild(root.Context(), OpStageWait)
		w.Finish(ErrNone)
		a := rec.StartChild(root.Context(), OpStageAdmit)
		a.SetBytes(512)
		a.SetFiles(3)
		a.SetHit(true)
		a.Finish(ErrNone)
		root.Finish(ErrNone)
	}
}

// BenchmarkSpanPromoted is the sampled path: every request promoted to the
// kept ring (no dump sink attached).
func BenchmarkSpanPromoted(b *testing.B) {
	rec := New(Options{SlowThreshold: time.Hour, SampleEvery: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rec.StartRequest(Context{}, OpStage)
		a := rec.StartChild(root.Context(), OpStageAdmit)
		a.Finish(ErrNone)
		root.Finish(ErrNone)
	}
}
