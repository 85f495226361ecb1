// Package lockcheck seeds one violation per lockcheck rule; the golden
// test diffs the analyzer's diagnostics against the want comments. This
// package covers guarded fields and release; the lockcheckv2 fixture
// covers the interprocedural rules.
package lockcheck

import "sync"

// Store follows the mutex-above-guarded-fields layout: name is immutable
// (above mu), items and n are guarded (below mu).
type Store struct {
	name string

	mu    sync.Mutex
	items map[string]int
	n     int
}

// Name reads only the unguarded field: no finding.
func (s *Store) Name() string { return s.name }

// Add locks correctly: no finding.
func (s *Store) Add(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k]++
	s.n++
}

// Peek touches a guarded field without ever locking.
func (s *Store) Peek(k string) int {
	return s.items[k] // want "accesses s.items .guarded by s.mu. without locking"
}

// sizeLocked is exempt by the Locked-suffix calling convention.
func (s *Store) sizeLocked() int { return s.n }

// Bad releases on only one of two return paths.
func (s *Store) Bad(k string) (int, bool) {
	s.mu.Lock()
	v, ok := s.items[k]
	if !ok {
		return 0, false // want "^return while s.mu is still locked .locked at line 40 without defer.$"
	}
	s.mu.Unlock()
	return v, true
}

// Leak never unlocks at all.
func (s *Store) Leak() {
	s.mu.Lock() // want "locked but never unlocked"
	s.n++
}

// Early releases on its early-exit path only; the second return still holds
// the lock on every path to it.
func (s *Store) Early(k string) int {
	s.mu.Lock()
	if k == "" {
		s.mu.Unlock()
		return 0
	}
	v := s.items[k]
	return v // want "return while s.mu is still locked .locked at line 58 without defer."
}

// Branches unlocks on both branches before returning: no finding.
func (s *Store) Branches(k string) int {
	s.mu.Lock()
	if k == "" {
		s.mu.Unlock()
		return 0
	}
	v := s.items[k]
	s.mu.Unlock()
	return v
}

// Deferred releases through defer, so every return is covered: no finding.
func (s *Store) Deferred(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k == "" {
		return 0
	}
	return s.items[k]
}

// Reacquire leaves s.mu held at the end of the loop body, but the range may
// run zero times, so the lock is not held on every path out of the loop:
// the Lock below is no self-deadlock and the return holds nothing.
func (s *Store) Reacquire(keys []string) int {
	for _, k := range keys {
		s.mu.Lock()
		s.items[k] = 0
	}
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	return n
}
