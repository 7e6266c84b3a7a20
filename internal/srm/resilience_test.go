package srm

import (
	"errors"
	"testing"
	"time"
)

// store.Store is a concrete type we can't fake through syncStore, so the
// bounded-retry engine is driven directly.
func TestRetryStoreBounded(t *testing.T) {
	s, _ := newTestSRM(100, 10)

	calls := 0
	err := s.retryStore(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retryStore: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (two retries then success)", calls)
	}
	if got := s.Stats().Resilience.Retries; got != 2 {
		t.Errorf("retries counted = %d, want 2", got)
	}

	// A persistent failure surfaces after exactly storeAttempts tries.
	calls = 0
	persistent := errors.New("disk gone")
	if err := s.retryStore(func() error { calls++; return persistent }); !errors.Is(err, persistent) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("persistent failure tried %d times, want 3", calls)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	s, _ := newTestSRM(100, 10)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	token, _, _, err := c.Stage("a")
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(2 * time.Second) }()

	// New connections must be refused while the old one still works.
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := Dial(srv.Addr()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The in-flight client finishes its business and disconnects.
	if err := c.Release(token); err != nil {
		t.Fatalf("release during drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last client left")
	}
	if st := s.Stats(); st.PinnedBytes != 0 || st.ActiveJobs != 0 {
		t.Errorf("bundles still held after shutdown: %+v", st)
	}
	// Second Shutdown is a no-op.
	if err := srv.Shutdown(time.Millisecond); err != nil {
		t.Errorf("repeat shutdown: %v", err)
	}
}

func TestServerShutdownForceClosesStragglers(t *testing.T) {
	s, _ := newTestSRM(100, 10)
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddFile("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Stage("a"); err != nil {
		t.Fatal(err)
	}

	// The client never disconnects; the drain deadline must cut it loose
	// and its lease must be released by the handler teardown.
	start := time.Now()
	if err := srv.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v despite a 50ms drain deadline", elapsed)
	}
	waitUntil(t, func() bool {
		st := s.Stats()
		return st.PinnedBytes == 0 && st.ActiveJobs == 0
	})
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
