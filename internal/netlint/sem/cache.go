package sem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/galoisfield/gfre/internal/netlist"
)

// Analysis results are content-hash cached: gfred lints every submission at
// admission time and again when the job runs, gflint is rerun on unchanged
// files by editors and CI, and the diffcheck campaigns lint the same
// generated designs repeatedly. The sweep is cheap but not free, and the
// Result is immutable — so identical (netlist, options) pairs share one.
//
// The key is a digest of exactly what a sweep reads (see structureHash), so
// two netlists parsed from the same text — gfred's admission and execution
// copies of one submission — hit the same entry. It formats nothing, so
// computing it costs a small fraction of the sweep, where the canonical EQN
// hash (checkpoint.HashNetlist) costs about half of one.

const cacheCap = 64

var cache = struct {
	sync.Mutex
	m     map[string]*Result
	order []string // insertion order, oldest first
}{m: make(map[string]*Result)}

// cacheKey binds the netlist's digest to every option that shapes the
// result.
func cacheKey(n *netlist.Netlist, opts Options) string {
	return fmt.Sprintf("sem2|%s|tt%d|s%d", structureHash(n), opts.ttMaxVars(), opts.maxSets())
}

// structureHash digests everything Analyze reads of n: every gate's type,
// fanins and LUT table, the input names that classify the operands, and the
// outputs with their names. Equal digests therefore mean equal Results:
// unlike canonical EQN text, which a netlist and its round-trip share even
// when their gate ID spaces differ, the digest covers the gate array facts
// are indexed by. The model name is digested too, as in the canonical hash:
// renaming a netlist files it under a new entry.
func structureHash(n *netlist.Netlist) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<13)
	flush := func() {
		h.Write(buf) //nolint:errcheck — sha256 never errors
		buf = buf[:0]
	}
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
		if len(buf) >= 1<<12 {
			flush()
		}
	}
	str(n.Name)
	buf = binary.AppendUvarint(buf, uint64(n.NumGates()))
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		buf = append(buf, byte(g.Type))
		buf = binary.AppendUvarint(buf, uint64(len(g.Fanin)))
		buf = binary.AppendUvarint(buf, uint64(len(g.Table)))
		for _, f := range g.Fanin {
			buf = binary.AppendUvarint(buf, uint64(id-f)) // fanins precede the gate
		}
		for i := 0; i < len(g.Table); i += 8 {
			var b byte
			for j := i; j < min(i+8, len(g.Table)); j++ {
				if g.Table[j] {
					b |= 1 << uint(j-i)
				}
			}
			buf = append(buf, b)
		}
		if len(buf) >= 1<<12 {
			flush()
		}
	}
	ins := n.Inputs()
	buf = binary.AppendUvarint(buf, uint64(len(ins)))
	for _, id := range ins {
		buf = binary.AppendUvarint(buf, uint64(id))
		str(n.NameOf(id))
	}
	names := n.OutputNames()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for i, id := range n.Outputs() {
		buf = binary.AppendUvarint(buf, uint64(id))
		str(names[i])
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// AnalyzeCached is Analyze behind a bounded content-addressed cache.
func AnalyzeCached(n *netlist.Netlist, opts Options) *Result {
	key := cacheKey(n, opts)

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
