package srm

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/core"
	"fbcache/internal/policy"
	"fbcache/internal/store"
)

func newTestSRM(capacity bundle.Size, fileSizes ...bundle.Size) (*SRM, *bundle.Catalog) {
	cat := bundle.NewCatalog()
	for _, s := range fileSizes {
		cat.AddAnonymous(s)
	}
	pol := policy.WrapOptFileBundle(core.New(capacity, cat.SizeFunc(), core.Options{}))
	return New(pol, cat), cat
}

func TestStageAndRelease(t *testing.T) {
	s, _ := newTestSRM(100, 10, 20, 30)
	rel, res, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.BytesLoaded != 30 {
		t.Errorf("res = %+v", res)
	}
	st := s.Stats()
	if st.ActiveJobs != 1 || st.PinnedBytes != 30 {
		t.Errorf("stats = %+v", st)
	}
	rel()
	rel() // idempotent
	st = s.Stats()
	if st.ActiveJobs != 0 || st.PinnedBytes != 0 {
		t.Errorf("after release: %+v", st)
	}
	// Second stage is a hit.
	rel2, res2, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if !res2.Hit {
		t.Error("expected hit")
	}
}

func TestStageTooLarge(t *testing.T) {
	s, _ := newTestSRM(10, 20)
	_, res, err := s.Stage(bundle.New(0))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if !res.Unserviceable {
		t.Error("not flagged unserviceable")
	}
}

func TestStageNamesUnknownFile(t *testing.T) {
	s, cat := newTestSRM(100, 10)
	cat.Add("known", 10)
	if _, _, err := s.StageNames([]string{"known", "missing"}); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestStageBlocksUntilPinsRelease(t *testing.T) {
	// Capacity 100; two bundles of 60 can't be pinned together.
	s, _ := newTestSRM(100, 60, 60)
	rel1, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	staged2 := make(chan struct{})
	go func() {
		rel2, _, err := s.Stage(bundle.New(1))
		if err != nil {
			t.Errorf("second stage: %v", err)
			close(staged2)
			return
		}
		defer rel2()
		close(staged2)
	}()
	select {
	case <-staged2:
		t.Fatal("second stage did not block on pinned bytes")
	case <-time.After(50 * time.Millisecond):
	}
	rel1()
	select {
	case <-staged2:
	case <-time.After(2 * time.Second):
		t.Fatal("second stage never unblocked")
	}
}

func TestCloseWakesBlockedStagers(t *testing.T) {
	s, _ := newTestSRM(100, 60, 60)
	rel1, _, err := s.Stage(bundle.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rel1()
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Stage(bundle.New(1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked stager never woke")
	}
}

func TestConcurrentStaging(t *testing.T) {
	// Many goroutines staging overlapping bundles; -race is the real check.
	cat := bundle.NewCatalog()
	for i := 0; i < 32; i++ {
		cat.AddAnonymous(5)
	}
	pol := policy.WrapOptFileBundle(core.New(200, cat.SizeFunc(), core.Options{}))
	s := New(pol, cat)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := bundle.New(
					bundle.FileID((g*7+i)%32),
					bundle.FileID((g*3+2*i)%32),
					bundle.FileID((5*g+i)%32),
				)
				rel, _, err := s.Stage(b)
				if err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				_ = s.Stats() // exercise Stats under concurrency
				rel()
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.ActiveJobs != 0 || st.PinnedBytes != 0 {
		t.Errorf("leaked pins: %+v", st)
	}
	if st.Jobs != 400 {
		t.Errorf("jobs = %d, want 400", st.Jobs)
	}
	if err := pol.Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddFile(t *testing.T) {
	s, cat := newTestSRM(100)
	id, err := s.AddFile("henp-energy", 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Size(id); got != 42 {
		t.Errorf("size = %d", got)
	}
	if _, err := s.AddFile("bad", -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestNewPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil, nil)
}

func TestWithStoreMirrorsResidency(t *testing.T) {
	// A tiny cache (2 files of 9 bytes, the payload length) over a real
	// on-disk store: staged files exist and verify; evicted files disappear
	// from disk.
	cat := bundle.NewCatalog()
	for i := 0; i < 4; i++ {
		cat.AddAnonymous(9)
	}
	pol := policy.WrapOptFileBundle(core.New(18, cat.SizeFunc(), core.Options{}))
	st, err := store.New(t.TempDir(), store.FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(fmt.Sprintf("payload-%d", f))), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pol, cat).WithStore(st)

	rel, _, err := s.Stage(bundle.New(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []bundle.FileID{0, 1} {
		if !st.Contains(f) {
			t.Errorf("file %d not materialized", f)
		}
		if err := st.Verify(f); err != nil {
			t.Error(err)
		}
	}
	rc, err := s.OpenStaged(0)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "payload-0" {
		t.Errorf("content = %q", data)
	}
	rel()

	// Staging {2,3} evicts {0,1}; their bytes must vanish.
	rel2, _, err := s.Stage(bundle.New(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if st.Contains(0) || st.Contains(1) {
		t.Errorf("evicted files still on disk")
	}
	if !st.Contains(2) || !st.Contains(3) {
		t.Errorf("staged files missing from disk")
	}
	if got := st.DiskUsage(); got <= 0 {
		t.Errorf("disk usage = %d", got)
	}
}

// TestStageRepairsStoreAfterFailedSync: a Stage whose store sync fails has
// already admitted its files, so they stay resident in the policy but are
// absent on disk. The next Stage of the same bundle is a policy hit; it must
// still stage those files before returning, so OpenStaged reads every one.
func TestStageRepairsStoreAfterFailedSync(t *testing.T) {
	cat := bundle.NewCatalog()
	for i := 0; i < 3; i++ {
		cat.AddAnonymous(9) // len("payload-N")
	}
	pol := policy.WrapOptFileBundle(core.New(27, cat.SizeFunc(), core.Options{}))
	fetches := 0
	st, err := store.New(t.TempDir(), store.FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		fetches++
		if fetches <= storeAttempts {
			return nil, errors.New("source unreachable")
		}
		return io.NopCloser(strings.NewReader(fmt.Sprintf("payload-%d", f))), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pol, cat).WithStore(st)
	b := bundle.New(0, 1, 2)

	if _, _, err := s.Stage(b); err == nil {
		t.Fatal("stage #1 succeeded although every fetch attempt failed")
	}
	if got := s.Stats(); got.ActiveJobs != 0 || got.PinnedBytes != 0 {
		t.Fatalf("failed stage left pins: %+v", got)
	}
	rel, res, err := s.Stage(b)
	if err != nil {
		t.Fatalf("stage #2: %v", err)
	}
	defer rel()
	if !res.Hit {
		t.Errorf("stage #2 = %+v, want a policy hit", res)
	}
	for _, f := range b {
		rc, err := s.OpenStaged(f)
		if err != nil {
			t.Fatalf("OpenStaged(%d): %v", f, err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(data) != fmt.Sprintf("payload-%d", f) {
			t.Errorf("file %d: content %q, err %v", f, data, err)
		}
	}
}

// TestStageRejectsShortSource: a source that delivers fewer bytes than the
// catalog size must fail the Stage and leave nothing on disk, instead of
// silently skewing capacity accounting; once the source delivers the right
// length, the next Stage repairs the file.
func TestStageRejectsShortSource(t *testing.T) {
	cat := bundle.NewCatalog()
	f := cat.AddAnonymous(9) // len("payload-0")
	pol := policy.WrapOptFileBundle(core.New(9, cat.SizeFunc(), core.Options{}))
	short := true
	st, err := store.New(t.TempDir(), store.FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		payload := fmt.Sprintf("payload-%d", f)
		if short {
			payload = payload[:4]
		}
		return io.NopCloser(strings.NewReader(payload)), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pol, cat).WithStore(st)

	if _, _, err := s.Stage(bundle.New(f)); err == nil {
		t.Fatal("Stage accepted a 4-byte file with catalog size 9")
	}
	if st.Contains(f) {
		t.Error("short file left in the store")
	}
	if got := st.DiskUsage(); got != 0 {
		t.Errorf("disk usage = %d after a rejected stage", got)
	}

	short = false
	rel, _, err := s.Stage(bundle.New(f))
	if err != nil {
		t.Fatalf("Stage with a correct source: %v", err)
	}
	defer rel()
	if !st.Contains(f) || st.DiskUsage() != 9 {
		t.Errorf("contains=%v disk usage=%d, want the 9-byte file", st.Contains(f), st.DiskUsage())
	}
}

func TestOpenStagedWithoutStore(t *testing.T) {
	s, _ := newTestSRM(10, 1)
	if _, err := s.OpenStaged(0); err == nil {
		t.Error("OpenStaged without store succeeded")
	}
}
