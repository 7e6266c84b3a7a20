package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"fbcache/internal/bundle"
)

// fakeSource serves deterministic content per file.
func fakeSource() Source {
	return FetchFunc(func(f bundle.FileID) (io.ReadCloser, error) {
		content := strings.Repeat(fmt.Sprintf("file-%d|", f), int(f)+1)
		return io.NopCloser(bytes.NewReader([]byte(content))), nil
	})
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(t.TempDir(), fakeSource())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStageAndOpen(t *testing.T) {
	s := newStore(t)
	size, sum, err := s.Stage(3)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || sum == 0 {
		t.Errorf("size=%d sum=%x", size, sum)
	}
	if !s.Contains(3) {
		t.Error("not contained after stage")
	}
	rc, err := s.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "file-3|") {
		t.Errorf("content = %q", data)
	}
	if bundle.Size(len(data)) != size {
		t.Errorf("len = %d, staged size %d", len(data), size)
	}
}

func TestStageIdempotent(t *testing.T) {
	s := newStore(t)
	s1, c1, err := s.Stage(2)
	if err != nil {
		t.Fatal(err)
	}
	s2, c2, err := s.Stage(2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || c1 != c2 {
		t.Errorf("restage changed identity: %d/%x vs %d/%x", s1, c1, s2, c2)
	}
}

func TestStageBundleCountsOnlyNewBytes(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Stage(1); err != nil {
		t.Fatal(err)
	}
	total, err := s.StageBundle(bundle.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	size2, _, _ := s.Stage(2)
	if total != size2 {
		t.Errorf("total = %d, want only file 2's %d", total, size2)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Stage(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(4); err != nil {
		t.Fatalf("fresh file failed verify: %v", err)
	}
	// Corrupt the on-disk bytes behind the store's back.
	path := s.entryFor(4).path
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(4); err == nil {
		t.Error("corruption not detected")
	}
}

func TestRemove(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Stage(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(5); err != nil {
		t.Fatal(err)
	}
	if s.Contains(5) {
		t.Error("contained after remove")
	}
	if _, err := s.Open(5); err == nil {
		t.Error("opened removed file")
	}
	if err := s.Remove(5); err != nil { // idempotent
		t.Errorf("double remove: %v", err)
	}
	// Restaging works.
	if _, _, err := s.Stage(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(5); err != nil {
		t.Error(err)
	}
}

func TestDiskUsage(t *testing.T) {
	s := newStore(t)
	if s.DiskUsage() != 0 {
		t.Error("fresh store has usage")
	}
	var want bundle.Size
	for f := bundle.FileID(1); f <= 3; f++ {
		size, _, err := s.Stage(f)
		if err != nil {
			t.Fatal(err)
		}
		want += size
	}
	if got := s.DiskUsage(); got != want {
		t.Errorf("DiskUsage = %d, want %d", got, want)
	}
	s.Remove(2)
	if got := s.DiskUsage(); got >= want {
		t.Errorf("DiskUsage = %d after remove", got)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("tape drive on fire")
	s, err := New(t.TempDir(), FetchFunc(func(bundle.FileID) (io.ReadCloser, error) {
		return nil, boom
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Stage(1); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if s.Contains(1) {
		t.Error("failed stage left residue")
	}
}

// TestNewReclaimsLeftovers: a store reusing a directory starts with an
// empty index, so the staged copies and temp files of an earlier store must
// go; files it did not write must stay.
func TestNewReclaimsLeftovers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"f00000003.dat", "staging-123456", "notes.txt", "f3.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "f-sub.dat"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := New(dir, fakeSource())
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if want := []string{"f-sub.dat", "f3.bak", "notes.txt"}; !slices.Equal(left, want) {
		t.Errorf("files left = %v, want %v", left, want)
	}
	if got := s.DiskUsage(); got != 0 {
		t.Errorf("DiskUsage = %d, want 0", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(t.TempDir(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestConcurrentStaging(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := bundle.FileID(i % 5)
				if _, _, err := s.Stage(f); err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				if err := s.Verify(f); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for f := bundle.FileID(0); f < 5; f++ {
		if !s.Contains(f) {
			t.Errorf("file %d missing", f)
		}
	}
}
