// Content-addressed result store: completed cones keyed on (netlist
// content hash, bit). Shared across pools, it is what makes a million
// submissions of the same m=163 multiplier pay for one extraction — a new
// pool over a hash already in the store starts with its cones done.
package shard

import (
	"sync"

	"github.com/galoisfield/gfre/internal/rewrite"
)

// DefaultStoreEntries bounds an unconfigured store. An entry holds one
// cone's compacted expression, about 88 bytes per final term (see
// rewrite.Result.EstimatedMemBytes): some 41 KB for an m=163 cone of 470
// terms, so a store full of such cones holds about 2.7 GB. Callers serving
// large fields size the store with NewStore.
const DefaultStoreEntries = 1 << 16

type storeKey struct {
	hash string
	bit  int
}

// Store is a bounded content-addressed cache of completed cone results.
// Eviction is FIFO: extraction working sets are generational (a job's
// cones arrive together and are re-read together), so recency tracking
// buys little over insertion order here.
type Store struct {
	mu      sync.Mutex
	max     int
	entries map[storeKey]rewrite.BitResult
	order   []storeKey
	hits    int
	misses  int
}

// NewStore builds a store bounded to max entries (0 selects
// DefaultStoreEntries).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultStoreEntries
	}
	return &Store{max: max, entries: map[storeKey]rewrite.BitResult{}}
}

// Get returns the cached result of (hash, bit).
func (s *Store) Get(hash string, bit int) (rewrite.BitResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	br, ok := s.entries[storeKey{hash, bit}]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return br, ok
}

// Put stores a completed cone result. It reports whether the entry was new
// — false means another flight already landed it (single-flight dedup).
func (s *Store) Put(hash string, bit int, br rewrite.BitResult) bool {
	if br.Status != rewrite.StatusOK {
		return false // only completed cones are cacheable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := storeKey{hash, bit}
	if _, ok := s.entries[k]; ok {
		return false
	}
	if len(s.entries) >= s.max {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, old)
	}
	s.entries[k] = br
	s.order = append(s.order, k)
	return true
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// HitRate returns (hits, misses) since creation.
func (s *Store) HitRate() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
