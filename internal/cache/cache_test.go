package cache

import (
	"testing"
	"testing/quick"

	"fbcache/internal/bundle"
)

func TestNewPanicsOnNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1)
}

func TestInsertEvictBasics(t *testing.T) {
	c := New(100)
	if err := c.Insert(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, 60); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 100 || c.Free() != 0 || c.Len() != 2 {
		t.Errorf("used=%d free=%d len=%d", c.Used(), c.Free(), c.Len())
	}
	if err := c.Insert(3, 1); err == nil {
		t.Error("over-capacity insert succeeded")
	}
	if err := c.Evict(1); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 60 || c.Contains(1) {
		t.Errorf("after evict: used=%d contains(1)=%v", c.Used(), c.Contains(1))
	}
	if err := c.Evict(1); err == nil {
		t.Error("double evict succeeded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertEdgeCases(t *testing.T) {
	c := New(10)
	if err := c.Insert(1, -5); err == nil {
		t.Error("negative size insert succeeded")
	}
	if err := c.Insert(1, 11); err == nil {
		t.Error("larger-than-capacity insert succeeded")
	}
	if err := c.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	// Idempotent same-size re-insert is a no-op.
	if err := c.Insert(1, 5); err != nil {
		t.Errorf("same-size re-insert: %v", err)
	}
	if c.Used() != 5 {
		t.Errorf("used = %d after idempotent insert", c.Used())
	}
	// Different-size re-insert is an error.
	if err := c.Insert(1, 6); err == nil {
		t.Error("different-size re-insert succeeded")
	}
	// Zero-size file is legal (e.g. empty bitmap slice).
	if err := c.Insert(2, 0); err != nil {
		t.Errorf("zero-size insert: %v", err)
	}
}

func TestSupportsAndMissing(t *testing.T) {
	c := New(100)
	for f, s := range map[bundle.FileID]bundle.Size{1: 10, 3: 10, 5: 10} {
		if err := c.Insert(f, s); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Supports(bundle.New(1, 3)) {
		t.Error("Supports({1,3}) = false")
	}
	if !c.Supports(bundle.New()) {
		t.Error("Supports(empty) = false")
	}
	if c.Supports(bundle.New(1, 2)) {
		t.Error("Supports({1,2}) = true")
	}
	if got := c.Missing(bundle.New(1, 2, 4, 5)); !got.Equal(bundle.New(2, 4)) {
		t.Errorf("Missing = %v", got)
	}
	sizeOf := func(f bundle.FileID) bundle.Size { return bundle.Size(f) * 100 }
	if got := c.MissingBytes(bundle.New(1, 2, 4), sizeOf); got != 600 {
		t.Errorf("MissingBytes = %d, want 600", got)
	}
}

func TestPinning(t *testing.T) {
	c := New(100)
	if err := c.Pin(1); err == nil {
		t.Error("pin of absent file succeeded")
	}
	if err := c.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Pin(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Pin(1); err != nil {
		t.Fatal(err)
	}
	if !c.Pinned(1) {
		t.Error("Pinned(1) = false")
	}
	if err := c.Evict(1); err == nil {
		t.Error("evicted pinned file")
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(1); err == nil {
		t.Error("evicted file still pinned once")
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if c.Pinned(1) {
		t.Error("still pinned after full unpin")
	}
	if err := c.Evict(1); err != nil {
		t.Errorf("evict after unpin: %v", err)
	}
	if err := c.Unpin(1); err == nil {
		t.Error("unpin of unpinned file succeeded")
	}
}

func TestPinBundleAtomicity(t *testing.T) {
	c := New(100)
	if err := c.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	// 2 is absent: nothing should be pinned.
	if err := c.PinBundle(bundle.New(1, 2)); err == nil {
		t.Fatal("PinBundle with absent member succeeded")
	}
	if c.Pinned(1) {
		t.Error("partial pin leaked")
	}
	if err := c.Insert(2, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.PinBundle(bundle.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !c.Pinned(1) || !c.Pinned(2) {
		t.Error("bundle not pinned")
	}
	if err := c.UnpinBundle(bundle.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if c.Pinned(1) || c.Pinned(2) {
		t.Error("bundle not unpinned")
	}
}

func TestResidentSorted(t *testing.T) {
	c := New(100)
	for _, f := range []bundle.FileID{9, 2, 7, 4} {
		if err := c.Insert(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Resident(); !got.Equal(bundle.New(2, 4, 7, 9)) {
		t.Errorf("Resident = %v", got)
	}
}

func TestCounters(t *testing.T) {
	c := New(100)
	c.Insert(1, 30)
	c.Insert(2, 20)
	c.Evict(1)
	loaded, evicted, loads, evs := c.Counters()
	if loaded != 50 || evicted != 30 || loads != 2 || evs != 1 {
		t.Errorf("counters = %d %d %d %d", loaded, evicted, loads, evs)
	}
	c.ResetCounters()
	loaded, evicted, loads, evs = c.Counters()
	if loaded != 0 || evicted != 0 || loads != 0 || evs != 0 {
		t.Error("ResetCounters did not zero")
	}
	if c.Used() != 20 {
		t.Error("ResetCounters touched residency")
	}
}

// Property: any sequence of random inserts/evicts/pins keeps invariants.
func TestQuickInvariants(t *testing.T) {
	type op struct {
		Kind uint8
		File uint8
		Size uint16
	}
	f := func(ops []op) bool {
		c := New(1000)
		for _, o := range ops {
			f := bundle.FileID(o.File % 32)
			switch o.Kind % 4 {
			case 0:
				_ = c.Insert(f, bundle.Size(o.Size%400))
			case 1:
				_ = c.Evict(f)
			case 2:
				_ = c.Pin(f)
			case 3:
				_ = c.Unpin(f)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSupports(b *testing.B) {
	c := New(1 << 30)
	for i := 0; i < 1000; i++ {
		c.Insert(bundle.FileID(i), 1<<20)
	}
	q := bundle.New(10, 200, 500, 999)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Supports(q)
	}
}

// FuzzSupportsExcept cross-checks the merge-walk residency test against its
// definition: SupportsExcept(b, x) must equal Supports(b.Minus(x)) for any
// residency. Resident files are drawn from IDs 0–31 and b and x from 0–47,
// so some probes fall past the end of the dense residency table. The
// checked-in corpus (testdata/fuzz/FuzzSupportsExcept) pins the edge cases:
// empty b and x, disjoint bundles, b ⊆ x, and IDs past the table.
func FuzzSupportsExcept(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawRes, rawB, rawX []byte) {
		c := New(1 << 20)
		for _, r := range rawRes {
			if err := c.Insert(bundle.FileID(r%32), 1); err != nil {
				t.Fatal(err)
			}
		}
		mk := func(raw []byte) bundle.Bundle {
			ids := make([]bundle.FileID, len(raw))
			for i, r := range raw {
				ids[i] = bundle.FileID(r % 48)
			}
			return bundle.New(ids...)
		}
		b, x := mk(rawB), mk(rawX)
		if got, want := c.SupportsExcept(b, x), c.Supports(b.Minus(x)); got != want {
			t.Fatalf("resident %v: SupportsExcept(%v, %v) = %v, Supports(Minus) = %v",
				c.Resident(), b, x, got, want)
		}
	})
}
