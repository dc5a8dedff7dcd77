package sem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/galoisfield/gfre/internal/netlist"
)

// Analysis results are content-hash cached: gfred lints every submission at
// admission time and again when the job runs, gflint is rerun on unchanged
// files by editors and CI, and the diffcheck campaigns lint the same
// generated designs repeatedly. The sweep is cheap but not free, and the
// Result is immutable — so identical (netlist, options) pairs share one.
// A cached Result holds only what its readers query, a few words per
// output; the sweep's per-gate facts and support slab are working state,
// and the cache keeps one set of them, the spare, for the next sweep to
// reuse, so a run of sweeps does not fault in fresh memory for each.
//
// The key is built on the netlist's canonical digest (netlist.Digest),
// which its caller computes anyway, so the cache costs no serialization of
// its own; see cacheKey for what it adds. The digest takes a while, so a
// sweep does not wait for it: the sweep runs at once on a goroutine of its
// own while its caller computes the digest and then consults the cache,
// and a hit stops the sweep.

const cacheCap = 64

var cache = struct {
	sync.Mutex
	m     map[string]*Result
	order []string  // insertion order, oldest first
	spare *analyzer // working state of a finished sweep, for the next
}{m: make(map[string]*Result)}

// takeAnalyzer returns the spare working state, or a new one while another
// sweep holds it.
func takeAnalyzer() *analyzer {
	cache.Lock()
	defer cache.Unlock()
	a := cache.spare
	cache.spare = nil
	if a == nil {
		a = new(analyzer)
	}
	return a
}

// putAnalyzer keeps a, done with its sweep, as the spare: of two sweeps
// that ran at once, the one whose facts array is larger.
func putAnalyzer(a *analyzer) {
	a.n, a.inputs, a.ports = nil, nil, Ports{} // the Result owns these
	cache.Lock()
	defer cache.Unlock()
	if cache.spare == nil || cap(cache.spare.facts) < cap(a.facts) {
		cache.spare = a
	}
}

// cacheKey binds the netlist's canonical digest to what the canonical
// text leaves open of what a sweep reads, and to every option that shapes
// the result. The text names every gate's fanins and renders its function,
// but it does not pin the gate array facts are indexed by: a netlist and
// its round-trip share it even when inputs sit at other IDs or output
// aliases are buffer gates in one and port names in the other, and a LUT
// renders like the plain cell it computes. So the key adds the gate count,
// every gate's type, the input and output gate IDs, and the fanins of the
// all-zero LUTs, the one cell whose text ("0") omits them. Equal keys
// therefore mean equal Results.
func cacheKey(n *netlist.Netlist, digest string, types []netlist.GateType, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "sem3|%s|s%d|", digest, opts.maxSets())
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 1<<12), uint32(len(types)))
	flush := func() {
		if len(buf) >= 1<<12-16 {
			h.Write(buf) //nolint:errcheck — sha256 never errors
			buf = buf[:0]
		}
	}
	var zeroLuts []int
	for id, t := range types {
		buf = append(buf, byte(t))
		flush()
		if t == netlist.Lut && !slices.Contains(n.Gate(id).Table, true) {
			zeroLuts = append(zeroLuts, id)
		}
	}
	for _, ids := range [][]int{n.Inputs(), n.Outputs(), zeroLuts} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			flush()
		}
	}
	for _, id := range zeroLuts {
		for _, f := range n.Gate(id).Fanin {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
			flush()
		}
	}
	h.Write(buf) //nolint:errcheck
	return hex.EncodeToString(h.Sum(nil))
}

// Sweep is a semantic sweep run beside its caller: one goroutine calls
// Run while another calls Consult and then Wait.
type Sweep struct {
	n      *netlist.Netlist
	opts   Options
	stop   atomic.Bool
	done   chan *Result
	key    string  // cache key, once consulted; "" files nothing
	cached *Result // a cache hit, which made the sweep stop
}

// NewSweep prepares the semantic sweep of n.
func NewSweep(n *netlist.Netlist, opts Options) *Sweep {
	return &Sweep{n: n, opts: opts, done: make(chan *Result, 1)}
}

// Run performs the sweep, unless a cache hit stops it first.
func (s *Sweep) Run() { s.done <- analyze(s.n, s.opts, &s.stop) }

// Consult looks the netlist up in the cache under its canonical digest
// (netlist.Digest); types lists every gate's type, in ID order. A hit
// stops the sweep, whose result is then never used; a miss has Wait file
// the sweep's result under the key.
func (s *Sweep) Consult(digest string, types []netlist.GateType) {
	s.key = cacheKey(s.n, digest, types, s.opts)
	cache.Lock()
	r := cache.m[s.key]
	cache.Unlock()
	if r != nil {
		s.cached = r
		s.stop.Store(true)
	}
}

// Wait returns the sweep's result: the cached one after a hit, otherwise
// the sweep's own, filed in the cache if Consult ran. It waits for Run
// either way, so no sweep outlives the call.
func (s *Sweep) Wait() *Result {
	r := <-s.done
	if s.cached != nil {
		return s.cached
	}
	if s.key == "" {
		return r
	}
	cache.Lock()
	defer cache.Unlock()
	if prev, ok := cache.m[s.key]; ok {
		// A concurrent analysis won the race; share its result.
		return prev
	}
	cache.m[s.key] = r
	cache.order = append(cache.order, s.key)
	for len(cache.order) > cacheCap {
		delete(cache.m, cache.order[0])
		cache.order = cache.order[1:]
	}
	return r
}

// AnalyzeCached is Analyze behind a bounded content-addressed cache. It
// computes the netlist's digest (memoized on the netlist) beside the
// sweep; a netlist that cannot be digested is analyzed uncached.
func AnalyzeCached(n *netlist.Netlist, opts Options) *Result {
	s := NewSweep(n, opts)
	go s.Run()
	if digest, err := n.Digest(); err == nil {
		types := make([]netlist.GateType, n.NumGates())
		for id := range types {
			types[id] = n.Gate(id).Type
		}
		s.Consult(digest, types)
	}
	return s.Wait()
}
