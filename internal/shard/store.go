// Content-addressed result store: completed cones keyed on (netlist
// content hash, bit). Shared across pools, it is what makes a million
// submissions of the same m=163 multiplier pay for one extraction — a new
// pool over a hash already in the store starts with its cones done.
package shard

import (
	"sync"

	"github.com/galoisfield/gfre/internal/rewrite"
)

// DefaultStoreTerms bounds an unconfigured store by the final terms of the
// expressions it retains: at rewrite.RetainedBytesPerTerm each, about
// 256 MiB. An m=163 cone of 470 terms holds some 41 KB, so the bound keeps
// about 6,500 such cones whatever the size of the fields served.
const DefaultStoreTerms = (256 << 20) / rewrite.RetainedBytesPerTerm

type storeKey struct {
	hash string
	bit  int
}

// Store is a bounded content-addressed cache of completed cone results.
// Eviction is FIFO: extraction working sets are generational (a job's
// cones arrive together and are re-read together), so recency tracking
// buys little over insertion order here.
type Store struct {
	mu       sync.Mutex
	maxTerms int // bound on retained final terms
	terms    int // final terms of the resident entries
	entries  map[storeKey]rewrite.BitResult
	order    []storeKey
	hits     int
	misses   int
}

// NewStore builds a store bounded to maxTerms retained final terms;
// maxTerms <= 0 selects DefaultStoreTerms.
func NewStore(maxTerms int) *Store {
	if maxTerms <= 0 {
		maxTerms = DefaultStoreTerms
	}
	return &Store{maxTerms: maxTerms, entries: map[storeKey]rewrite.BitResult{}}
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
	cost := storeTerms(br)
	if cost > s.maxTerms {
		return false // larger than the whole store
	}
	for s.terms+cost > s.maxTerms {
		old := s.order[0]
		s.order = s.order[1:]
		s.terms -= storeTerms(s.entries[old])
		delete(s.entries, old)
	}
	s.entries[k] = br
	s.order = append(s.order, k)
	s.terms += cost
	return true
}

// storeTerms is what an entry counts against the bound: its final terms,
// at least one, so a store of empty expressions is still bounded.
func storeTerms(br rewrite.BitResult) int { return max(br.FinalTerms, 1) }

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
