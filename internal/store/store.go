// Package store gives the staging cache real bytes: a directory-backed
// object store that materializes staged files on local disk, verifies them
// with CRC-32 checksums, and deletes them on eviction. The policies and
// simulators in this repository track residency only; an SRM deployment
// wires a Store underneath so that "file f is resident" means an actual,
// checksummed file exists under the cache directory — the staging disk of
// §1.1 made concrete.
//
// Sources abstract where bytes come from (an MSS mover, HTTP, another
// site); FetchFunc adapts any reader-producing function.
package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fbcache/internal/bundle"
)

// Source produces the content of a file, e.g. by reading from a mass
// storage system.
type Source interface {
	// Open returns a reader for the file's content. The caller closes it.
	Open(f bundle.FileID) (io.ReadCloser, error)
}

// FetchFunc adapts a function to the Source interface.
type FetchFunc func(f bundle.FileID) (io.ReadCloser, error)

// Open implements Source.
func (fn FetchFunc) Open(f bundle.FileID) (io.ReadCloser, error) { return fn(f) }

// Store is a directory-backed object store. It is safe for concurrent use;
// concurrent stages of the same file are serialized per file.
type Store struct {
	dir    string
	source Source

	mu    sync.Mutex
	files map[bundle.FileID]*entry //fbvet:guardedby mu
}

type entry struct {
	mu       sync.Mutex  // serializes stage/remove of one file
	path     string      //fbvet:guardedby mu
	size     bundle.Size //fbvet:guardedby mu
	checksum uint32      //fbvet:guardedby mu
	present  bool        //fbvet:guardedby mu
}

// New creates (or reuses) a store rooted at dir, fetching misses from
// source. A store starts with an empty index, so files an earlier store left
// in dir — staged copies (f*.dat) and interrupted temp files (staging-*) —
// could never be served or evicted; New deletes them. Other files in dir
// are left alone.
func New(dir string, source Source) (*Store, error) {
	if source == nil {
		return nil, fmt.Errorf("store: nil source")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := reclaim(dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir, source: source, files: make(map[bundle.FileID]*entry)}, nil
}

// reclaim deletes the regular files in dir that a Store writes.
func reclaim(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		staged, _ := filepath.Match("f*.dat", name)
		temp, _ := filepath.Match("staging-*", name)
		if !e.Type().IsRegular() || !(staged || temp) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: reclaim %s: %w", name, err)
		}
	}
	return nil
}

// Dir reports the cache directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryFor(f bundle.FileID) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.files[f]
	if !ok {
		e = &entry{path: filepath.Join(s.dir, fmt.Sprintf("f%08d.dat", f))}
		s.files[f] = e
	}
	return e
}

// Stage materializes f in the cache directory (idempotent) and returns its
// size and checksum. Content is written to a temp file and renamed, so
// crashes never leave a half-staged file under the final name.
func (s *Store) Stage(f bundle.FileID) (bundle.Size, uint32, error) {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.present {
		return e.size, e.checksum, nil
	}
	rc, err := s.source.Open(f)
	if err != nil {
		return 0, 0, fmt.Errorf("store: open source for %d: %w", f, err)
	}
	defer rc.Close()

	tmp, err := os.CreateTemp(s.dir, "staging-*")
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename

	h := crc32.NewIEEE()
	n, err := io.Copy(io.MultiWriter(tmp, h), rc)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: stage %d: %w", f, err)
	}
	if err := os.Rename(tmp.Name(), e.path); err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	e.size = bundle.Size(n)
	e.checksum = h.Sum32()
	e.present = true
	return e.size, e.checksum, nil
}

// StageBundle stages every file of b, returning the total bytes written
// (files already present cost nothing).
func (s *Store) StageBundle(b bundle.Bundle) (bundle.Size, error) {
	var total bundle.Size
	for _, f := range b {
		before := s.Contains(f)
		size, _, err := s.Stage(f)
		if err != nil {
			return total, err
		}
		if !before {
			total += size
		}
	}
	return total, nil
}

// Contains reports whether f is materialized.
func (s *Store) Contains(f bundle.FileID) bool {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.present
}

// Open returns a reader over the staged content of f.
func (s *Store) Open(f bundle.FileID) (io.ReadCloser, error) {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.present {
		return nil, fmt.Errorf("store: file %d not staged", f)
	}
	return os.Open(e.path)
}

// Verify re-reads f from disk and checks its CRC-32 against the stage-time
// checksum, detecting bit rot or external modification.
func (s *Store) Verify(f bundle.FileID) error {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.present {
		return fmt.Errorf("store: file %d not staged", f)
	}
	rc, err := os.Open(e.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer rc.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, rc)
	if err != nil {
		return fmt.Errorf("store: verify %d: %w", f, err)
	}
	if bundle.Size(n) != e.size || h.Sum32() != e.checksum {
		return fmt.Errorf("store: file %d corrupted (size %d/%d, crc %08x/%08x)",
			f, n, e.size, h.Sum32(), e.checksum)
	}
	return nil
}

// Remove deletes f's bytes (eviction). Removing an absent file is a no-op.
func (s *Store) Remove(f bundle.FileID) error {
	e := s.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.present {
		return nil
	}
	if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	e.present = false
	return nil
}

// DiskUsage sums the sizes of materialized files.
func (s *Store) DiskUsage() bundle.Size {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.files))
	for _, e := range s.files {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	var total bundle.Size
	for _, e := range entries {
		e.mu.Lock()
		if e.present {
			total += e.size
		}
		e.mu.Unlock()
	}
	return total
}
