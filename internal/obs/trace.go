package obs

import "fmt"

// Event time semantics: every event carries an At float64. Simulation layers
// (internal/simulate.RunEvents) stamp sim-time seconds; policy and cache
// layers, which have no clock at all, stamp a monotone per-component ordinal
// (admission count, load count, eviction count). Neither ever reads the wall
// clock, so traces from the same seed are bit-identical.

// StagePhase distinguishes the lifecycle points of one staging operation.
type StagePhase uint8

const (
	// StageStart marks the first transfer attempt for a job's file set.
	StageStart StagePhase = iota
	// StageRetry marks a failed transfer attempt that will be retried.
	StageRetry
	// StageFailover marks a transfer switching to a lower-ranked replica site.
	StageFailover
	// StageDone marks the end of staging, successful or not (see StageEvent.OK).
	StageDone
)

func (p StagePhase) String() string {
	switch p {
	case StageStart:
		return "start"
	case StageRetry:
		return "retry"
	case StageFailover:
		return "failover"
	case StageDone:
		return "done"
	}
	return "unknown"
}

// MarshalJSON renders the phase as its lowercase name so JSONL traces are
// readable and stable across const reordering.
func (p StagePhase) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses the lowercase phase names MarshalJSON emits, so
// JSONL traces decode back into typed events (see internal/obs/traceio).
func (p *StagePhase) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"start"`:
		*p = StageStart
	case `"retry"`:
		*p = StageRetry
	case `"failover"`:
		*p = StageFailover
	case `"done"`:
		*p = StageDone
	default:
		return fmt.Errorf("obs: unknown stage phase %s", data)
	}
	return nil
}

// AdmitEvent is emitted once per bundle admission decision by a policy
// (OptFileBundle, Landlord).
type AdmitEvent struct {
	At             float64 `json:"at"`
	Policy         string  `json:"policy"`
	Files          int     `json:"files"`
	BytesRequested int64   `json:"bytes_requested"`
	BytesLoaded    int64   `json:"bytes_loaded"`
	FilesLoaded    int     `json:"files_loaded"`
	FilesEvicted   int     `json:"files_evicted"`
	Hit            bool    `json:"hit"`
	Unserviceable  bool    `json:"unserviceable,omitempty"`
}

// LoadEvent is emitted by the cache when a file becomes resident. File is
// the numeric catalog ID, not the name: emit sites must not allocate (a
// string conversion would, even under NopTracer), and the consumer can join
// IDs against the catalog offline.
type LoadEvent struct {
	At    float64 `json:"at"`
	File  int64   `json:"file"`
	Bytes int64   `json:"bytes"`
}

// EvictEvent is emitted by the cache when a file is removed. File is the
// numeric catalog ID (see LoadEvent).
type EvictEvent struct {
	At    float64 `json:"at"`
	File  int64   `json:"file"`
	Bytes int64   `json:"bytes"`
}

// SelectRoundEvent is emitted by OptFileBundle for each OptCacheSelect
// (paper Alg. 1) run during a miss: the greedy pick of cached bundles to
// retain, maximising Σ v'(r) within the byte budget.
type SelectRoundEvent struct {
	At           float64 `json:"at"`
	Candidates   int     `json:"candidates"`
	Chosen       int     `json:"chosen"`
	Files        int     `json:"files"`
	Value        float64 `json:"value"`
	Budget       int64   `json:"budget"`
	BudgetUsed   int64   `json:"budget_used"`
	SingleWinner bool    `json:"single_winner,omitempty"`
}

// CreditDecayEvent is emitted by Landlord (paper Alg. 3) when it lowers every
// resident file's credit by the minimum per-byte credit to free space.
type CreditDecayEvent struct {
	At    float64 `json:"at"`
	Min   float64 `json:"min"`
	Files int     `json:"files"`
}

// StageEvent is emitted by the event-driven simulator for each phase of a
// staging operation (see StagePhase). Site is the replica site currently
// serving the transfer; OK is meaningful only for StageDone.
type StageEvent struct {
	At    float64    `json:"at"`
	Phase StagePhase `json:"phase"`
	Job   int        `json:"job"`
	Site  string     `json:"site,omitempty"`
	Files int        `json:"files,omitempty"`
	Bytes int64      `json:"bytes,omitempty"`
	OK    bool       `json:"ok,omitempty"`
}

// JobServedEvent is emitted once per completed job request.
type JobServedEvent struct {
	At          float64 `json:"at"`
	Job         int     `json:"job"`
	Hit         bool    `json:"hit"`
	ResponseSec float64 `json:"response_sec,omitempty"`
	StagingSec  float64 `json:"staging_sec,omitempty"`
	// QueuedAt is when the job entered the wait queue (its arrival, in the
	// trace's time unit — sim-time seconds for the event simulator, the job
	// ordinal for the trace-driven one, which has no queueing and stamps
	// QueuedAt == FirstStageAt). Zero in traces from emitters that predate
	// the field or have no queue semantics (e.g. srmbench client records).
	QueuedAt float64 `json:"queued_at,omitempty"`
	// FirstStageAt is when the job first won an execution slot and its
	// bundle went through Admit; FirstStageAt - QueuedAt is the queue-wait
	// leg of the job's critical path (see internal/obs/analyze).
	FirstStageAt   float64 `json:"first_stage_at,omitempty"`
	BytesRequested int64   `json:"bytes_requested"`
	BytesLoaded    int64   `json:"bytes_loaded"`
}

// SpanEvent is the trace form of one completed request span from the
// serving path (see internal/obs/span). Unlike the simulator events above,
// spans measure wall-clock time: At is the span's end, in seconds since the
// recorder's epoch, and DurSec its wall-clock duration. IDs are opaque
// uint64s assigned by the recorder; Parent is zero for request roots.
type SpanEvent struct {
	At     float64 `json:"at"`
	Req    uint64  `json:"req"`
	Span   uint64  `json:"span"`
	Parent uint64  `json:"parent,omitempty"`
	Op     string  `json:"op"`
	DurSec float64 `json:"dur_sec"`
	Bytes  int64   `json:"bytes,omitempty"`
	Files  int     `json:"files,omitempty"`
	Hit    bool    `json:"hit,omitempty"`
	// Err is the span's error class ("too_large", "closed", ...) or empty on
	// success (see span.ErrCode).
	Err string `json:"err,omitempty"`
}

// ReplicaPlanEvent is emitted by the event-driven simulator once per
// replication epoch: the adaptive planner re-ran against the current replica
// catalog and fault state (see internal/replicate.Planner.Replan). Counts
// summarize the epoch; per-action detail stays in the simulator's stats so
// the trace line has bounded size.
type ReplicaPlanEvent struct {
	At float64 `json:"at"`
	// Epoch is the 1-based re-plan ordinal within the run.
	Epoch int `json:"epoch"`
	// Actions is how many replications the epoch committed, of which
	// Emergency were planned to outrun a scheduled outage.
	Actions   int   `json:"actions"`
	Emergency int   `json:"emergency,omitempty"`
	Bytes     int64 `json:"bytes"`
	// Retired is how many cold planner-installed replicas were removed to
	// reclaim budget.
	Retired      int   `json:"retired,omitempty"`
	RetiredBytes int64 `json:"retired_bytes,omitempty"`
	// Unreachable is how many hot files had no live source this epoch.
	Unreachable int `json:"unreachable,omitempty"`
}

// Tracer receives typed events from the simulator core, the policies, the
// cache and the event engine. Implementations must be cheap: hot loops call
// these methods synchronously. Emit sites hold a concrete tracer behind a nil
// check — a nil tracer costs one untaken branch (see the no-op benchmarks in
// internal/core and internal/policy/landlord).
type Tracer interface {
	Admit(e AdmitEvent)
	Load(e LoadEvent)
	Evict(e EvictEvent)
	SelectRound(e SelectRoundEvent)
	CreditDecay(e CreditDecayEvent)
	Stage(e StageEvent)
	JobServed(e JobServedEvent)
	ReplicaPlan(e ReplicaPlanEvent)
	Span(e SpanEvent)
}

// NopTracer discards every event. Useful as an explicit stand-in where a
// Tracer value is required; passing nil to SetTracer is equally valid and
// marginally cheaper (branch not taken vs. empty dynamic dispatch).
type NopTracer struct{}

// Admit implements Tracer.
func (NopTracer) Admit(AdmitEvent) {}

// Load implements Tracer.
func (NopTracer) Load(LoadEvent) {}

// Evict implements Tracer.
func (NopTracer) Evict(EvictEvent) {}

// SelectRound implements Tracer.
func (NopTracer) SelectRound(SelectRoundEvent) {}

// CreditDecay implements Tracer.
func (NopTracer) CreditDecay(CreditDecayEvent) {}

// Stage implements Tracer.
func (NopTracer) Stage(StageEvent) {}

// JobServed implements Tracer.
func (NopTracer) JobServed(JobServedEvent) {}

// ReplicaPlan implements Tracer.
func (NopTracer) ReplicaPlan(ReplicaPlanEvent) {}

// Span implements Tracer.
func (NopTracer) Span(SpanEvent) {}
