package sem

import (
	"math/bits"
	"slices"
)

// Support sets are bitsets over primary-input positions, hash-consed into a
// slab so every distinct set is stored once and a per-wire fact carries only
// a 4-byte ID. XOR trees reuse a few hundred distinct sets across tens of
// thousands of gates, so interning is what keeps the sweep's memory linear
// in the number of *distinct* cones rather than gates x inputs.
//
// When a hostile or degenerate design manufactures more distinct sets than
// the table cap, intern widens the set to its operand-class closure (every
// class with at least one member present is rounded up to the full class).
// Closure is a superset — soundness of "input i may influence wire w" is
// preserved — and it keeps the one distinction the lint rules need exact:
// a widened set contains a key input iff the original did.
type suppPool struct {
	nwords int
	slab   []uint64 // set i occupies slab[i*nwords : (i+1)*nwords]
	tags   []uint32 // set ID -> 32-bit hash tag of its content
	// slots is an open-addressing table over the set IDs, probed linearly
	// from a set's home slot: a slot holds ID+1, 0 when empty, and a probe
	// compares tags before it touches the slab. A tag's top bits are its
	// home slot, so growing re-homes slots without hashing a set again. The
	// table starts small and doubles past half load: a sweep that interns
	// few sets keeps it in cache.
	slots  []uint32
	shift  uint // 32 - log2(len(slots))
	cap    int  // widen beyond this many distinct sets
	widens int  // widening events (observability)

	classMask [3][]uint64 // full-class masks, indexed by Class
	scratch   []uint64
}

const emptySet int32 = 0

// newSuppPool returns an empty pool; see reset.
func newSuppPool(nvars, maxSets, sizeHint int, classOf []Class) *suppPool {
	p := new(suppPool)
	p.reset(nvars, maxSets, sizeHint, classOf)
	return p
}

// reset empties the pool for a sweep over nvars inputs whose classes are
// classOf, keeping every buffer an earlier sweep grew. The slab is sized
// for an expected number of distinct sets (sizeHint, capped by maxSets) so
// a large sweep does not pay for slab reallocation.
func (p *suppPool) reset(nvars, maxSets, sizeHint int, classOf []Class) {
	nwords := max((nvars+63)/64, 1)
	sizeHint = min(max(sizeHint, 64), maxSets)
	p.nwords, p.cap, p.widens = nwords, maxSets, 0
	p.slab = slices.Grow(p.slab[:0], sizeHint*nwords)
	p.tags = slices.Grow(p.tags[:0], sizeHint)
	if p.slots == nil {
		p.sizeSlots(1 << 10)
	} else {
		clear(p.slots)
	}
	p.scratch = slices.Grow(p.scratch[:0], nwords)[:nwords]
	for c := range p.classMask {
		p.classMask[c] = slices.Grow(p.classMask[c][:0], nwords)[:nwords]
		clear(p.classMask[c])
	}
	for i, cl := range classOf {
		p.classMask[cl][i/64] |= 1 << uint(i%64)
	}
	// Set 0 is the empty set.
	clear(p.scratch)
	p.intern(p.scratch)
}

func (p *suppPool) get(id int32) []uint64 {
	return p.slab[int(id)*p.nwords : (int(id)+1)*p.nwords]
}

func (p *suppPool) count() int { return len(p.slab) / p.nwords }

// hashWords returns the 32-bit tag of a set: FNV-1a over its words, whose
// high bits are then spread by a Fibonacci multiply, since FNV-1a's low
// bits see only the low bits of each word.
func hashWords(w []uint64) uint32 {
	h := uint64(1469598103934665603)
	for _, v := range w {
		h = (h ^ v) * 1099511628211
	}
	return uint32((h * 0x9e3779b97f4a7c15) >> 32)
}

func eqWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupHashed returns the ID of an interned set equal to buf (whose tag is
// tag), or -1.
func (p *suppPool) lookupHashed(tag uint32, buf []uint64) int32 {
	mask := len(p.slots) - 1
	for i := int(tag >> p.shift); p.slots[i] != 0; i = (i + 1) & mask {
		if id := int32(p.slots[i]) - 1; p.tags[id] == tag && eqWords(p.get(id), buf) {
			return id
		}
	}
	return -1
}

// lookup returns the ID of an interned set equal to buf, or -1.
func (p *suppPool) lookup(buf []uint64) int32 {
	return p.lookupHashed(hashWords(buf), buf)
}

// intern returns the canonical ID for buf, inserting it if new. Past the
// table cap, new sets are widened to their class closure first; the closure
// family is finite (2^3 sets), so memory stays bounded no matter the input.
func (p *suppPool) intern(buf []uint64) int32 {
	h := hashWords(buf)
	if id := p.lookupHashed(h, buf); id >= 0 {
		return id
	}
	if p.count() >= p.cap {
		p.widens++
		p.widen(buf)
		h = hashWords(buf)
		if id := p.lookupHashed(h, buf); id >= 0 {
			return id
		}
	}
	id := int32(p.count())
	p.slab = append(p.slab, buf...)
	p.tags = append(p.tags, h)
	if 2*p.count() > len(p.slots) {
		p.sizeSlots(2 * len(p.slots))
		for id := range p.tags[:len(p.tags)-1] {
			p.insertSlot(int32(id))
		}
	}
	p.insertSlot(id)
	return id
}

// sizeSlots allocates an empty slot table of size entries (a power of two).
func (p *suppPool) sizeSlots(size int) {
	p.slots = make([]uint32, size)
	p.shift = uint(32 - bits.TrailingZeros(uint(size)))
}

// insertSlot files set id in the first free slot from its home.
func (p *suppPool) insertSlot(id int32) {
	mask := len(p.slots) - 1
	i := int(p.tags[id] >> p.shift)
	for p.slots[i] != 0 {
		i = (i + 1) & mask
	}
	p.slots[i] = uint32(id) + 1
}

// widen rounds buf up to its operand-class closure in place.
func (p *suppPool) widen(buf []uint64) {
	for c := range p.classMask {
		mask := p.classMask[c]
		hit := false
		for i, w := range buf {
			if w&mask[i] != 0 {
				hit = true
				break
			}
		}
		if hit {
			for i := range buf {
				buf[i] |= mask[i]
			}
		}
	}
}

// unionInto ORs set id into dst (len nwords).
func (p *suppPool) unionInto(dst []uint64, id int32) {
	for i, w := range p.get(id) {
		dst[i] |= w
	}
}

// size returns the cardinality of set id.
func (p *suppPool) size(id int32) int {
	n := 0
	for _, w := range p.get(id) {
		n += bits.OnesCount64(w)
	}
	return n
}

// subsetOfClass reports whether set id is wholly inside one class's mask.
func (p *suppPool) subsetOfClass(id int32, c Class) bool {
	mask := p.classMask[c]
	for i, w := range p.get(id) {
		if w&^mask[i] != 0 {
			return false
		}
	}
	return true
}

// members appends the input positions in set id to out.
func (p *suppPool) members(id int32, out []int) []int {
	for wi, w := range p.get(id) {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}
