// Package span is the request-telemetry layer for the SRM serving path:
// wall-clock spans with request/parent IDs propagated through the srm wire
// protocol (Client → Server → SRM → store/cache legs), recorded by an
// always-on lock-striped flight recorder with tail sampling — slow or
// failed requests are kept at full fidelity and dumped to a JSONL sink,
// the rest head-sampled — and per-operation log-bucket latency histograms
// exportable into an obs.Registry.
//
// Unlike the simulator tracer (internal/obs.Tracer events, which stamp
// sim-time or ordinals and never read the wall clock), spans exist to
// measure real serving latency: timestamps are nanoseconds of monotonic
// wall clock since the recorder's epoch. Spans therefore never flow into
// simulation state.
//
// The disabled path is free: every entry point is a method on a possibly
// nil *Recorder (or on the zero Active handle it returns), costs one
// branch, and provably does not allocate (see BenchmarkSpanDisabled,
// CI-gated at 0 allocs/op).
package span

import "time"

// RequestID identifies one request as seen by one recorder. IDs are
// assigned densely from 1; zero means "no request context".
type RequestID uint64

// SpanID identifies one span within a recorder. Zero means "no span"; a
// root span's Parent may carry a SpanID assigned by a *different* process's
// recorder (the client's RPC span), which is a best-effort join key only.
type SpanID uint64

// Op names the operation a span measures. The set is closed and small so
// the recorder can keep per-op histograms in a flat array with no map
// lookups on the hot path.
type Op uint8

const (
	// OpNone marks the zero Span; it is never recorded.
	OpNone Op = iota
	// OpStage is the server-side root of one stage dispatch.
	OpStage
	// OpStageWait is the leg a stage request spends blocked on capacity
	// (the SRM cond-var wait loop) — the queue-wait distribution.
	OpStageWait
	// OpStageAdmit is the policy admission leg (Policy.Admit + bookkeeping).
	OpStageAdmit
	// OpStageStore is the backing-store synchronization leg.
	OpStageStore
	// OpRelease is the server-side root of one lease release.
	OpRelease
	// OpAddFile is the server-side root of one catalog registration.
	OpAddFile
	// OpStats is the server-side root of one stats snapshot.
	OpStats
	// OpRPCStage..OpRPCStats are the client-observed round trips, wire and
	// server time included.
	OpRPCStage
	// OpRPCRelease is the client-observed release round trip.
	OpRPCRelease
	// OpRPCAddFile is the client-observed addfile round trip.
	OpRPCAddFile
	// OpRPCStats is the client-observed stats round trip.
	OpRPCStats

	opCount // sentinel, keep last
)

// opNames is indexed by Op; the names appear verbatim in SpanEvent.Op and
// in the {op="..."} label of every exported metric.
var opNames = [opCount]string{
	OpNone:       "none",
	OpStage:      "stage",
	OpStageWait:  "stage.wait",
	OpStageAdmit: "stage.admit",
	OpStageStore: "stage.store",
	OpRelease:    "release",
	OpAddFile:    "addfile",
	OpStats:      "stats",
	OpRPCStage:   "rpc.stage",
	OpRPCRelease: "rpc.release",
	OpRPCAddFile: "rpc.addfile",
	OpRPCStats:   "rpc.stats",
}

func (o Op) String() string {
	if o < opCount {
		return opNames[o]
	}
	return "unknown"
}

// ErrCode classifies how a span finished. The closed set keeps error
// accounting allocation-free (no error strings on the hot path) and maps
// one-to-one onto the srm sentinel errors.
type ErrCode uint8

const (
	// ErrNone means the operation succeeded.
	ErrNone ErrCode = iota
	// ErrTooLarge maps srm.ErrTooLarge: the bundle cannot fit even in an
	// empty cache.
	ErrTooLarge
	// ErrClosed maps srm.ErrClosed: the SRM shut down mid-request.
	ErrClosed
	// ErrStore is a backing-store synchronization failure.
	ErrStore
	// ErrOther is any error outside the classified set.
	ErrOther

	errCount // sentinel, keep last
)

// errNames is indexed by ErrCode; ErrNone is the empty string so the JSON
// field omits cleanly on success.
var errNames = [errCount]string{
	ErrNone:     "",
	ErrTooLarge: "too_large",
	ErrClosed:   "closed",
	ErrStore:    "store",
	ErrOther:    "other",
}

func (e ErrCode) String() string {
	if e < errCount {
		return errNames[e]
	}
	return "unknown"
}

// Context is the propagated part of a span: the request it belongs to and
// the span to parent new work under. The zero Context means "no tracing" —
// StartChild under it is free — and is what a request root starts from.
// Contexts cross the srm wire protocol as two uint64 fields.
type Context struct {
	Req    RequestID
	Parent SpanID
}

// Span is one completed operation. It is a plain value — fixed-size typed
// attributes instead of a tag map — so rings of spans are single
// allocations and recording one is a struct copy.
type Span struct {
	Req    RequestID
	ID     SpanID
	Parent SpanID
	Op     Op
	// Start and End are nanoseconds of monotonic wall clock since the
	// recorder's epoch (see Recorder).
	Start int64
	End   int64
	Bytes int64
	Files int32
	Hit   bool
	Err   ErrCode
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Active is a live span handle. It is a value type: starting a span
// allocates nothing, and the zero Active (from a nil recorder or an empty
// Context) makes every method a no-op, so emit sites need no nil checks.
type Active struct {
	rec  *Recorder
	span Span
	root bool
}

// OK reports whether the handle is recording (non-zero). Emit sites use it
// to skip attribute computation that only matters when tracing is on.
func (a *Active) OK() bool { return a.rec != nil }

// Context returns the propagation context for work nested under this span.
// For the zero Active it returns the zero Context, so children of an
// untraced span are untraced too.
func (a *Active) Context() Context {
	if a.rec == nil {
		return Context{}
	}
	return Context{Req: a.span.Req, Parent: a.span.ID}
}

// Req reports the span's request ID (zero for the zero Active).
func (a *Active) Req() RequestID { return a.span.Req }

// ID reports the span's own ID (zero for the zero Active) — what a client
// puts on the wire so the server's root span can parent under it.
func (a *Active) ID() SpanID { return a.span.ID }

// SetBytes attaches a byte count (bytes loaded for admissions, bytes
// requested for RPCs).
func (a *Active) SetBytes(n int64) {
	if a.rec != nil {
		a.span.Bytes = n
	}
}

// SetFiles attaches the file count of the bundle being served.
func (a *Active) SetFiles(n int) {
	if a.rec != nil {
		a.span.Files = int32(n)
	}
}

// SetHit marks the request a full cache hit.
func (a *Active) SetHit(hit bool) {
	if a.rec != nil {
		a.span.Hit = hit
	}
}

// AdoptRequest relabels the span with a request ID assigned elsewhere —
// the client adopts the server's ID from the response so offline analysis
// can join the client RPC span with the server's request tree. Zero ids
// are ignored; the adopted ID also drives this span's sampling decision.
func (a *Active) AdoptRequest(req RequestID) {
	if a.rec != nil && req != 0 {
		a.span.Req = req
	}
}

// Finish stamps the end time and hands the completed span to the recorder.
// Exactly one Finish per Active; the handle must not be used afterwards.
// No-op on the zero Active.
func (a *Active) Finish(err ErrCode) {
	if a.rec == nil {
		return
	}
	a.span.Err = err
	a.span.End = a.rec.now()
	a.rec.finish(a.span, a.root)
	a.rec = nil
}
