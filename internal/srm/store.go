package srm

import (
	"fmt"

	"fbcache/internal/bundle"
	"fbcache/internal/policy"
	"fbcache/internal/store"
)

// WithStore attaches a file-backed store to the SRM: after every successful
// Stage, files the policy loaded are materialized on disk and files it
// evicted are deleted, so the cache directory always mirrors the policy's
// residency. Call before serving traffic.
func (s *SRM) WithStore(st *store.Store) *SRM {
	if st == nil {
		panic("srm: nil store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
	return s
}

// syncStore applies one admission's movements to the attached store, then
// repairs pinned, the resident part of the bundle about to be pinned: any of
// its files that an earlier failed sync left resident in the policy but
// unstaged is staged now, so a successful Stage never hands out a file
// OpenStaged cannot read (DESIGN.md §8). Each operation gets storeAttempts
// bounded tries — transient filesystem errors (NFS hiccups, contended
// directories) are retried, persistent ones surface. Called with s.mu held.
func (s *SRM) syncStore(res policy.Result, pinned bundle.Bundle) error {
	if s.store == nil {
		return nil
	}
	for _, f := range res.Evicted {
		if err := s.retryStore(func() error { return s.store.Remove(f) }); err != nil {
			s.markUnsynced(res.Loaded)
			return fmt.Errorf("srm: store evict %d: %w", f, err)
		}
		delete(s.unsynced, f)
	}
	for _, f := range res.Loaded {
		if err := s.stageFile(f); err != nil {
			s.markUnsynced(res.Loaded)
			return err
		}
	}
	if len(s.unsynced) > 0 {
		for _, f := range pinned {
			if !s.unsynced[f] {
				continue
			}
			if err := s.stageFile(f); err != nil {
				return err
			}
			delete(s.unsynced, f)
		}
	}
	return nil
}

// stageFile materializes f in the store and checks the bytes written against
// f's catalog size, which the policy charged to the cache: a source whose
// file differs in length would otherwise skew capacity accounting unseen. A
// mismatched copy is removed and the attempt fails. Called with s.mu held.
func (s *SRM) stageFile(f bundle.FileID) error {
	want := s.sizeOf(f)
	err := s.retryStore(func() error {
		n, _, err := s.store.Stage(f)
		if err != nil || n == want {
			return err
		}
		if err := s.store.Remove(f); err != nil {
			return err
		}
		return fmt.Errorf("source gave %d bytes, catalog size is %d", n, want)
	})
	if err != nil {
		return fmt.Errorf("srm: store load %d: %w", f, err)
	}
	return nil
}

// markUnsynced records files the policy admitted whose sync failed; the
// next Stage that pins one of them stages it first. Called with s.mu held.
func (s *SRM) markUnsynced(files bundle.Bundle) {
	for _, f := range files {
		s.unsynced[f] = true
	}
}

// storeAttempts bounds tries per store operation.
const storeAttempts = 3

// retryStore runs op up to storeAttempts times, counting each repeat in the
// resilience metrics. Called with s.mu held.
func (s *SRM) retryStore(op func() error) error {
	var err error
	for attempt := 0; attempt < storeAttempts; attempt++ {
		if attempt > 0 {
			s.res.Retries++
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// OpenStaged returns a reader over a staged file's bytes. Only valid while
// the caller holds a Stage lease covering the file; requires WithStore.
func (s *SRM) OpenStaged(f bundle.FileID) (storeReader, error) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("srm: no store attached")
	}
	return st.Open(f)
}

// storeReader is the reader type returned by OpenStaged.
type storeReader = interface {
	Read(p []byte) (int, error)
	Close() error
}
