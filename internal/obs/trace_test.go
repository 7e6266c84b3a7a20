package obs

import (
	"strings"
	"sync"
	"testing"
)

// emitOneOfEach drives every Tracer method once with fixed payloads.
func emitOneOfEach(t Tracer) {
	t.Admit(AdmitEvent{At: 1, Policy: "opt", Files: 2, BytesRequested: 30, BytesLoaded: 10, FilesLoaded: 1, Hit: false})
	t.Load(LoadEvent{At: 1, File: 1, Bytes: 10})
	t.Evict(EvictEvent{At: 1, File: 0, Bytes: 5})
	t.SelectRound(SelectRoundEvent{At: 1, Candidates: 4, Chosen: 2, Files: 3, Value: 1.5, Budget: 100, BudgetUsed: 60})
	t.CreditDecay(CreditDecayEvent{At: 2, Min: 0.25, Files: 3})
	t.Stage(StageEvent{At: 3, Phase: StageStart, Job: 0, Site: "site-a", Files: 2, Bytes: 30})
	t.Stage(StageEvent{At: 4, Phase: StageRetry, Job: 0, Site: "site-a"})
	t.Stage(StageEvent{At: 5, Phase: StageFailover, Job: 0, Site: "site-b"})
	t.Stage(StageEvent{At: 6, Phase: StageDone, Job: 0, Site: "site-b", OK: true})
	t.JobServed(JobServedEvent{At: 6, Job: 0, Hit: false, BytesRequested: 30, BytesLoaded: 10})
}

func TestJSONLSinkDeterministic(t *testing.T) {
	var a, b strings.Builder
	sa, sb := NewJSONLSink(&a), NewJSONLSink(&b)
	emitOneOfEach(sa)
	emitOneOfEach(sb)
	if sa.Err() != nil || sb.Err() != nil {
		t.Fatalf("sink errors: %v, %v", sa.Err(), sb.Err())
	}
	if a.String() != b.String() {
		t.Fatal("identical event sequences produced different JSONL")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("got %d lines, want 10", len(lines))
	}
	for i, want := range []string{
		`"kind":"admit"`, `"kind":"load"`, `"kind":"evict"`, `"kind":"select_round"`,
		`"kind":"credit_decay"`, `"kind":"stage"`, `"kind":"stage"`, `"kind":"stage"`,
		`"kind":"stage"`, `"kind":"job_served"`,
	} {
		if !strings.HasPrefix(lines[i], `{`+want) {
			t.Errorf("line %d = %q, want prefix {%s", i, lines[i], want)
		}
	}
	// StagePhase marshals as its name, not a number.
	if !strings.Contains(lines[7], `"phase":"failover"`) {
		t.Errorf("stage line lacks named phase: %q", lines[7])
	}
}

func TestStatsSink(t *testing.T) {
	s := NewStatsSink()
	emitOneOfEach(s)
	s.Admit(AdmitEvent{Hit: true})
	s.Admit(AdmitEvent{Unserviceable: true})
	st := s.Stats()
	want := TraceStats{
		Admits: 3, Hits: 1, Unserviced: 1,
		Loads: 1, Evicts: 1, SelectRounds: 1, CreditDecays: 1,
		StageStarts: 1, StageRetries: 1, Failovers: 1, StageDones: 1,
		JobsServed: 1, BytesLoaded: 10, BytesEvicted: 5,
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestSinksConcurrent(t *testing.T) {
	var sb strings.Builder
	jsonl, stats := NewJSONLSink(&sb), NewStatsSink()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				emitOneOfEach(jsonl)
				emitOneOfEach(stats)
			}
		}()
	}
	wg.Wait()
	if got := stats.Stats().Admits; got != 400 {
		t.Fatalf("admits = %d, want 400", got)
	}
}

func TestStagePhaseString(t *testing.T) {
	for phase, want := range map[StagePhase]string{
		StageStart: "start", StageRetry: "retry", StageFailover: "failover",
		StageDone: "done", StagePhase(99): "unknown",
	} {
		if phase.String() != want {
			t.Errorf("StagePhase(%d).String() = %q, want %q", phase, phase.String(), want)
		}
	}
}
