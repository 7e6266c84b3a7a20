package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// jsonlRecord wraps an event with a kind discriminator. encoding/json emits
// struct fields in declaration order, so each line starts with {"kind":...}
// and the record layout is deterministic — golden-testable.
type jsonlRecord struct {
	Kind string `json:"kind"`
	Ev   any    `json:"ev"`
}

// JSONLSink writes one JSON object per event, newline-delimited. Safe for
// concurrent use; write errors are sticky and reported by Err so hot paths
// never have to check.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder //fbvet:guardedby mu
	err error         //fbvet:guardedby mu
}

// NewJSONLSink wraps w. The caller owns w's lifecycle (flush/close).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

func (s *JSONLSink) emit(kind string, ev any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(jsonlRecord{Kind: kind, Ev: ev})
}

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Admit implements Tracer.
func (s *JSONLSink) Admit(e AdmitEvent) { s.emit("admit", e) }

// Load implements Tracer.
func (s *JSONLSink) Load(e LoadEvent) { s.emit("load", e) }

// Evict implements Tracer.
func (s *JSONLSink) Evict(e EvictEvent) { s.emit("evict", e) }

// SelectRound implements Tracer.
func (s *JSONLSink) SelectRound(e SelectRoundEvent) { s.emit("select_round", e) }

// CreditDecay implements Tracer.
func (s *JSONLSink) CreditDecay(e CreditDecayEvent) { s.emit("credit_decay", e) }

// Stage implements Tracer.
func (s *JSONLSink) Stage(e StageEvent) { s.emit("stage", e) }

// JobServed implements Tracer.
func (s *JSONLSink) JobServed(e JobServedEvent) { s.emit("job_served", e) }

// ReplicaPlan implements Tracer.
func (s *JSONLSink) ReplicaPlan(e ReplicaPlanEvent) { s.emit("replica_plan", e) }

// Span implements Tracer.
func (s *JSONLSink) Span(e SpanEvent) { s.emit("span", e) }

// TraceStats aggregates event counts and headline byte totals.
type TraceStats struct {
	Admits       int64 `json:"admits"`
	Hits         int64 `json:"hits"`
	Unserviced   int64 `json:"unserviced"`
	Loads        int64 `json:"loads"`
	Evicts       int64 `json:"evicts"`
	SelectRounds int64 `json:"select_rounds"`
	CreditDecays int64 `json:"credit_decays"`
	StageStarts  int64 `json:"stage_starts"`
	StageRetries int64 `json:"stage_retries"`
	Failovers    int64 `json:"failovers"`
	StageDones   int64 `json:"stage_dones"`
	JobsServed   int64 `json:"jobs_served"`
	ReplicaPlans int64 `json:"replica_plans"`
	BytesLoaded  int64 `json:"bytes_loaded"`
	BytesEvicted int64 `json:"bytes_evicted"`
	// BytesReplicated sums ReplicaPlanEvent.Bytes — the re-replication
	// traffic the adaptive planner moved.
	BytesReplicated int64 `json:"bytes_replicated"`
	// Spans counts wall-clock request spans (see SpanEvent); SpanErrors is
	// the subset that finished with a non-empty error class.
	Spans      int64 `json:"spans"`
	SpanErrors int64 `json:"span_errors"`
}

// StatsSink counts events without retaining them — the cheapest way to
// assert "N evictions happened" in a test. Safe for concurrent use.
type StatsSink struct {
	mu sync.Mutex
	st TraceStats //fbvet:guardedby mu
}

// NewStatsSink returns an empty aggregating sink.
func NewStatsSink() *StatsSink { return &StatsSink{} }

// Stats returns a copy of the aggregated counts.
func (s *StatsSink) Stats() TraceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Admit implements Tracer.
func (s *StatsSink) Admit(e AdmitEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Admits++
	if e.Hit {
		s.st.Hits++
	}
	if e.Unserviceable {
		s.st.Unserviced++
	}
}

// Load implements Tracer.
func (s *StatsSink) Load(e LoadEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Loads++
	s.st.BytesLoaded += e.Bytes
}

// Evict implements Tracer.
func (s *StatsSink) Evict(e EvictEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Evicts++
	s.st.BytesEvicted += e.Bytes
}

// SelectRound implements Tracer.
func (s *StatsSink) SelectRound(SelectRoundEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.SelectRounds++
}

// CreditDecay implements Tracer.
func (s *StatsSink) CreditDecay(CreditDecayEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.CreditDecays++
}

// Stage implements Tracer.
func (s *StatsSink) Stage(e StageEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Phase {
	case StageStart:
		s.st.StageStarts++
	case StageRetry:
		s.st.StageRetries++
	case StageFailover:
		s.st.Failovers++
	case StageDone:
		s.st.StageDones++
	}
}

// JobServed implements Tracer.
func (s *StatsSink) JobServed(JobServedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.JobsServed++
}

// ReplicaPlan implements Tracer.
func (s *StatsSink) ReplicaPlan(e ReplicaPlanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.ReplicaPlans++
	s.st.BytesReplicated += e.Bytes
}

// Span implements Tracer.
func (s *StatsSink) Span(e SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Spans++
	if e.Err != "" {
		s.st.SpanErrors++
	}
}
