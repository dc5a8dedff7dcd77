package sem

import (
	"fmt"
	"sync"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/netlist"
)

// Analysis results are content-hash cached: gfred lints every submission at
// admission time and again when the job runs, gflint is rerun on unchanged
// files by editors and CI, and the diffcheck campaigns lint the same
// generated designs repeatedly. The sweep is cheap but not free, and the
// Result is immutable — so identical (netlist, options) pairs share one.
//
// The key reuses the checkpoint package's canonical netlist hashing (the
// same content binding that makes resume refuse a mismatched snapshot), so
// any two construction paths that produce the same canonical EQN text hit
// the same entry.

const cacheCap = 64

var cache = struct {
	sync.Mutex
	m     map[string]*Result
	order []string // insertion order, oldest first
}{m: make(map[string]*Result)}

// cacheKey binds the content hash to every option that shapes the result —
// plus the gate and input counts, because canonical text alone is not
// structural identity: WriteEQN synthesizes alias-buffer lines for renamed
// outputs, so a netlist and its EQN round-trip (which has real Buf gates
// for those lines) serialize identically while owning different gate ID
// spaces. Facts are indexed by gate ID; handing one netlist the other's
// Result would be out-of-bounds or, worse, silently wrong.
func cacheKey(contentHash string, n *netlist.Netlist, opts Options) string {
	return fmt.Sprintf("sem1|%s|g%d|i%d|tt%d|s%d",
		contentHash, n.NumGates(), len(n.Inputs()), opts.ttMaxVars(), opts.maxSets())
}

// AnalyzeCached is Analyze behind a bounded content-addressed cache.
// contentHash is the canonical netlist hash (checkpoint.HashNetlist); when
// empty it is computed here. A different digest, such as one of the source
// bytes, works but files the same netlist under a second entry.
func AnalyzeCached(n *netlist.Netlist, contentHash string, opts Options) *Result {
	if contentHash == "" {
		h, err := checkpoint.HashNetlist(n)
		if err != nil {
			return Analyze(n, opts)
		}
		contentHash = h
	}
	key := cacheKey(contentHash, n, opts)

	cache.Lock()
	if r, ok := cache.m[key]; ok {
		cache.Unlock()
		return r
	}
	cache.Unlock()

	r := Analyze(n, opts)

	cache.Lock()
	if prev, ok := cache.m[key]; ok {
		// A concurrent analysis won the race; share its result.
		cache.Unlock()
		return prev
	}
	cache.m[key] = r
	cache.order = append(cache.order, key)
	for len(cache.order) > cacheCap {
		delete(cache.m, cache.order[0])
		cache.order = cache.order[1:]
	}
	cache.Unlock()
	return r
}

// CacheSize reports the number of cached results (for tests and metrics).
func CacheSize() int {
	cache.Lock()
	defer cache.Unlock()
	return len(cache.m)
}
