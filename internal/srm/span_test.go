package srm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/obs/span"
	"fbcache/internal/policy"
)

// startSpanServer is startServer with a flight recorder on the SRM,
// configured so every request is anomalous (kept at full fidelity).
func startSpanServer(t *testing.T, capacity bundle.Size, o span.Options) (*Server, *SRM, *span.Recorder) {
	t.Helper()
	cat := bundle.NewCatalog()
	pol := policy.WrapOptFileBundle(core.New(capacity, cat.SizeFunc(), core.Options{}))
	rec := span.New(o)
	s := New(pol, cat).WithSpans(rec)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, s, rec
}

// keepAll makes every request anomalous so tests never miss a span.
func keepAll() span.Options {
	return span.Options{SlowThreshold: time.Nanosecond, SampleEvery: 1 << 62}
}

func TestWireSpansEndToEnd(t *testing.T) {
	srv, _, rec := startSpanServer(t, 100, keepAll())
	crec := span.New(keepAll())
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WithSpans(crec)

	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("b", 20); err != nil {
		t.Fatal(err)
	}
	token, _, loaded, err := c.Stage("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(token); err != nil {
		t.Fatal(err)
	}

	// Server side: the stage request must have a root with an admit leg
	// parented under it, carrying the bundle attributes.
	kept := rec.Kept()
	byOp := map[span.Op][]span.Span{}
	for _, s := range kept {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, op := range []span.Op{span.OpAddFile, span.OpStage, span.OpRelease} {
		if len(byOp[op]) == 0 {
			t.Errorf("no %s span on the server", op)
		}
	}
	if len(byOp[span.OpStage]) != 1 || len(byOp[span.OpStageAdmit]) != 1 {
		t.Fatalf("stage spans = %d roots / %d admits, want 1/1",
			len(byOp[span.OpStage]), len(byOp[span.OpStageAdmit]))
	}
	root, admit := byOp[span.OpStage][0], byOp[span.OpStageAdmit][0]
	if admit.Req != root.Req || admit.Parent != root.ID {
		t.Errorf("admit (req %d parent %d) not under stage root (req %d id %d)",
			admit.Req, admit.Parent, root.Req, root.ID)
	}
	if root.Files != 2 || root.Bytes != int64(loaded) {
		t.Errorf("root attributes files=%d bytes=%d, want 2/%d", root.Files, root.Bytes, loaded)
	}
	if admit.Bytes != int64(loaded) {
		t.Errorf("admit bytes = %d, want %d", admit.Bytes, loaded)
	}
	// The fast path never blocked, so no queue-wait span exists.
	if n := len(byOp[span.OpStageWait]); n != 0 {
		t.Errorf("%d wait spans on an uncontended stage, want 0", n)
	}
	// The server root's parent is the client's wire span ID.
	if root.Parent == 0 {
		t.Error("server stage root has no wire parent")
	}

	// Client side: the rpc.stage span adopted the server's request ID, so
	// both recorders agree on the request.
	var rpcStage *span.Span
	for _, s := range crec.Kept() {
		if s.Op == span.OpRPCStage {
			s := s
			rpcStage = &s
		}
	}
	if rpcStage == nil {
		t.Fatal("client recorded no rpc.stage span")
	}
	if rpcStage.Req != root.Req {
		t.Errorf("client rpc.stage req = %d, server req = %d; adoption failed",
			rpcStage.Req, root.Req)
	}
	if rpcStage.ID != root.Parent {
		t.Errorf("client span %d is not the server root's parent %d", rpcStage.ID, root.Parent)
	}
	if rpcStage.Bytes != int64(loaded) {
		t.Errorf("rpc.stage bytes = %d, want %d", rpcStage.Bytes, loaded)
	}
}

// TestWaitSpanOnContention: a stage that cannot pin yet blocks on the
// server until another connection releases, then succeeds; the block is
// exactly one stage.wait span covering the hold.
func TestWaitSpanOnContention(t *testing.T) {
	srv, s, rec := startSpanServer(t, 30, keepAll())
	holder, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	waiter, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	if err := holder.AddFile("a", 30); err != nil {
		t.Fatal(err)
	}
	if err := holder.AddFile("b", 30); err != nil {
		t.Fatal(err)
	}
	token, _, _, err := holder.Stage("a")
	if err != nil {
		t.Fatal(err)
	}

	// Cache full of pins: "b" blocks on the server until "a" is released.
	// The hold starts only once the server counts "b" as waiting, so both
	// the client's wait and the wait span cover all of it.
	type staged struct {
		token string
		err   error
	}
	done := make(chan staged, 1)
	start := time.Now()
	go func() {
		tok, _, _, err := waiter.Stage("b")
		done <- staged{tok, err}
	}()
	waitUntil(t, func() bool { return s.Stats().WaitingJobs == 1 })
	const hold = 30 * time.Millisecond
	time.Sleep(hold)
	if err := holder.Release(token); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("contended stage: %v", got.err)
	}
	if elapsed := time.Since(start); elapsed < hold {
		t.Errorf("contended stage returned after %v, before the %v hold ended", elapsed, hold)
	}
	if err := waiter.Release(got.token); err != nil {
		t.Fatal(err)
	}

	var waits int
	for _, sp := range rec.Kept() {
		if sp.Op != span.OpStageWait {
			continue
		}
		waits++
		if sp.Err != span.ErrNone {
			t.Errorf("wait span err = %v, want none", sp.Err)
		}
		if sp.Duration() < hold {
			t.Errorf("wait span lasted %v, the hold was %v", sp.Duration(), hold)
		}
	}
	if waits != 1 {
		t.Errorf("wait spans = %d, want 1", waits)
	}
	if got := rec.OpErrors(span.OpStage); got != 0 {
		t.Errorf("OpErrors(stage) = %d, want 0", got)
	}
}

// TestShutdownFlushesFlightRecorder is the regression test for sinks losing
// tail events on SIGTERM: the anomaly dump is buffered, and only the
// Shutdown path (via CloseOnShutdown) flushes it.
func TestShutdownFlushesFlightRecorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	sink, closer, err := span.FileDump(path)
	if err != nil {
		t.Fatal(err)
	}
	o := keepAll()
	o.Dump, o.DumpCloser = sink, closer

	srv, _, rec := startSpanServer(t, 100, o)
	srv.CloseOnShutdown(rec)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	token, _, _, err := c.Stage("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(token); err != nil {
		t.Fatal(err)
	}
	if rec.Counters().Anomalies == 0 {
		t.Fatal("no anomalies recorded; the flush test needs dumped spans")
	}

	// The tail is still sitting in the bufio buffer.
	if raw, _ := os.ReadFile(path); len(raw) != 0 {
		t.Skipf("dump already on disk (%d bytes); buffer smaller than expected", len(raw))
	}

	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("Shutdown did not flush the flight-recorder dump")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, `{"kind":"span",`) {
			t.Errorf("dump line is not a span record: %s", line)
		}
	}

	// Shutdown is idempotent over the closers; a second call must not
	// re-close (which would surface a double-close error).
	if err := srv.Shutdown(time.Second); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}

	// Registering a closer after shutdown closes it immediately.
	late := &countingCloser{}
	srv.CloseOnShutdown(late)
	if late.n != 1 {
		t.Errorf("late closer ran %d times, want 1", late.n)
	}
}

type countingCloser struct{ n int }

func (c *countingCloser) Close() error { c.n++; return nil }
