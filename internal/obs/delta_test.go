package obs

import "testing"

// TestDeltaCounterReset pins the reset rule: a counter that went backwards
// between the two snapshots (restarted component, or a prev snapshot from an
// unrelated registry with the same names) yields its raw post-reset value,
// never a negative delta.
func TestDeltaCounterReset(t *testing.T) {
	old := NewRegistry()
	old.NewCounter("jobs_total", "").Add(100)
	prev := old.Snapshot()

	fresh := NewRegistry()
	fresh.NewCounter("jobs_total", "").Add(3)
	d := fresh.Snapshot().Delta(prev)

	m, ok := d.Get("jobs_total")
	if !ok {
		t.Fatal("jobs_total missing from delta")
	}
	if m.Value != 3 {
		t.Errorf("delta after reset = %g, want raw value 3 (not -97)", m.Value)
	}
}

func TestDeltaHistogramReset(t *testing.T) {
	bounds := []float64{1, 2}
	old := NewRegistry()
	oh := old.NewHistogram("lat", "", bounds)
	for i := 0; i < 10; i++ {
		oh.Observe(1)
	}
	prev := old.Snapshot()

	fresh := NewRegistry()
	fh := fresh.NewHistogram("lat", "", bounds)
	fh.Observe(2)
	d := fresh.Snapshot().Delta(prev)

	m, ok := d.Get("lat")
	if !ok {
		t.Fatal("lat missing from delta")
	}
	if m.Count != 1 || m.Sum != 2 {
		t.Errorf("delta after reset: count=%d sum=%g, want raw 1/2", m.Count, m.Sum)
	}
	for _, b := range m.Buckets {
		if b.Count < 0 {
			t.Errorf("bucket le=%g count=%d went negative after reset", b.UpperBound, b.Count)
		}
	}
}

// TestDeltaNormalStillSubtracts guards against the reset rule swallowing
// ordinary monotone growth.
func TestDeltaNormalStillSubtracts(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("ticks", "")
	c.Add(5)
	prev := reg.Snapshot()
	c.Add(7)
	m, _ := reg.Snapshot().Delta(prev).Get("ticks")
	if m.Value != 7 {
		t.Errorf("delta = %g, want 7", m.Value)
	}
}
