package anf

import (
	"hash/maphash"
	"math/bits"
)

// monoTab interns the monomials of one Poly into dense uint32 IDs. The table
// is append-only: an ID, once assigned, remains valid for the life of the
// polynomial, which is what lets the term set be a bitset over IDs and lets
// occurrence lists be built exactly once per (monomial, variable) pair.
//
// Each monomial is kept as three parallel views, none of them a string:
//
//   - arena[off[id]:off[id+1]]: the ascending variable list in one shared
//     backing array, iterated by the hot merge loops and hashed for lookup;
//   - tags[id]: a 32-bit hash of that list under the table's seed, whose
//     top bits are the monomial's home slot in the open-addressing index;
//   - mask[id]: a 64-bit signature (bit v&63 per variable) for O(1)
//     rejection in per-monomial variable membership tests.
//
// The index itself is one flat slice of ID+1 entries probed linearly: a
// probe compares tags first and only then the variable lists, and growing
// re-homes entries from their stored tags without hashing anything again.
// The seed is per table, as Go's maps are, so a submitted netlist cannot
// aim its monomials at one probe chain.
//
// Products are memoized in memo keyed by the unordered ID pair: the
// substitution loop multiplies the same (base, term) pairs over and over as
// cancellation churns the frontier, and a memo hit costs one probe of a
// flat table instead of a merge + intern.
type monoTab struct {
	seed    uint64
	slots   []uint32 // open-addressing index: ID+1, 0 when empty
	shift   uint     // 32 - log2(len(slots))
	tags    []uint32 // ID -> hash tag of its variable list
	off     []uint32 // ID -> arena offset; len = count+1
	arena   []Var    // concatenated ascending variable lists
	mask    []uint64 // ID -> variable signature
	memo    prodMemo // (loID<<32 | hiID) -> product ID
	scratch []Var    // merge buffer, reused across calls
}

// idOne is the ID of the constant-1 monomial in every table.
const idOne uint32 = 0

// newMonoTab returns a table holding only the constant 1, with room for
// about hint monomials over arena variables before it grows. seed 0 draws a
// fresh one.
func newMonoTab(hint, arena int, seed uint64) *monoTab {
	if seed == 0 {
		seed = newSeed()
	}
	hint = max(hint, 8)
	t := &monoTab{
		seed:  seed,
		tags:  make([]uint32, 0, hint),
		off:   make([]uint32, 1, hint+1),
		mask:  make([]uint64, 0, hint),
		arena: make([]Var, 0, max(arena, 16)),
	}
	t.sizeSlots(hint)
	t.addOne()
	return t
}

// addOne interns the constant 1, as ID idOne, into an empty table.
func (t *monoTab) addOne() {
	tg := t.tag(nil)
	t.slots[int(tg>>t.shift)] = t.add(nil, tg) + 1
}

// reset empties the table to the constant 1, keeping its seed and buffers.
func (t *monoTab) reset() {
	clear(t.slots)
	t.tags, t.off, t.arena, t.mask = t.tags[:0], t.off[:1], t.arena[:0], t.mask[:0]
	t.memo.reset()
	t.addOne()
}

// newSeed returns a random nonzero hash seed.
func newSeed() uint64 {
	return maphash.Bytes(maphash.MakeSeed(), nil) | 1
}

// mix folds one 64-bit word into a running hash.
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// tag hashes an ascending variable list.
func (t *monoTab) tag(vs []Var) uint32 {
	h := t.seed
	for _, v := range vs {
		h = mix(h, uint64(v))
	}
	return uint32(h >> 32)
}

// tagKey hashes a packed Mono encoding; it equals tag of the decoded list.
func (t *monoTab) tagKey(key string) uint32 {
	h := t.seed
	for i := 0; i+varBytes <= len(key); i += varBytes {
		h = mix(h, uint64(decodeVar(key[i:i+varBytes])))
	}
	return uint32(h >> 32)
}

// sizeSlots allocates an empty index for n monomials at no more than half
// load.
func (t *monoTab) sizeSlots(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.slots = make([]uint32, size)
	t.shift = uint(32 - bits.TrailingZeros(uint(size)))
}

// count returns the number of interned monomials (live or not).
func (t *monoTab) count() int { return len(t.tags) }

// vars returns the ascending variable list of id, aliasing the arena.
func (t *monoTab) vars(id uint32) []Var { return t.arena[t.off[id]:t.off[id+1]] }

// deg returns the degree of id.
func (t *monoTab) deg(id uint32) int { return int(t.off[id+1] - t.off[id]) }

// find returns the ID of the monomial with variable list vs (hash tag tg),
// or else the empty slot where it would go.
func (t *monoTab) find(vs []Var, tg uint32) (slot int, id uint32, ok bool) {
	mask := len(t.slots) - 1
	for i := int(tg >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if t.tags[s-1] == tg && equalVars(t.vars(s-1), vs) {
			return i, s - 1, true
		}
	}
}

func equalVars(a, b []Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupKey returns the ID of a packed Mono encoding, if interned. It only
// reads the table, so concurrent readers of a finished Poly may call it.
func (t *monoTab) lookupKey(key string) (uint32, bool) {
	tg := t.tagKey(key)
	mask := len(t.slots) - 1
	for i := int(tg >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if t.tags[s-1] != tg {
			continue
		}
		vs := t.vars(s - 1)
		if len(vs)*varBytes != len(key) {
			continue
		}
		eq := true
		for j, v := range vs {
			if decodeVar(key[j*varBytes:j*varBytes+varBytes]) != v {
				eq = false
				break
			}
		}
		if eq {
			return s - 1, true
		}
	}
}

// lookupVars returns the ID of an ascending variable list, if interned,
// without modifying the table.
func (t *monoTab) lookupVars(vs []Var) (uint32, bool) {
	_, id, ok := t.find(vs, t.tag(vs))
	return id, ok
}

// add appends a new monomial (not yet present) and returns its ID; the
// caller files it in the index.
func (t *monoTab) add(vs []Var, tg uint32) uint32 {
	id := uint32(len(t.tags))
	t.tags = append(t.tags, tg)
	var m uint64
	for _, v := range vs {
		m |= 1 << (uint32(v) & 63)
	}
	t.arena = append(t.arena, vs...)
	t.off = append(t.off, uint32(len(t.arena)))
	t.mask = append(t.mask, m)
	return id
}

// insert interns vs, new to the table, at its empty slot and returns its
// ID, growing the index past half load.
func (t *monoTab) insert(slot int, vs []Var, tg uint32) uint32 {
	id := t.add(vs, tg)
	t.slots[slot] = id + 1
	if 2*len(t.tags) > len(t.slots) {
		t.rehome(2 * len(t.tags))
	}
	return id
}

// rehome rebuilds the index for n monomials from the stored tags.
func (t *monoTab) rehome(n int) {
	t.sizeSlots(n)
	mask := len(t.slots) - 1
	for id, tg := range t.tags {
		i := int(tg >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(id) + 1
	}
}

// internVars interns an ascending duplicate-free variable list. A hit
// allocates nothing.
func (t *monoTab) internVars(vs []Var) uint32 {
	if len(vs) == 0 {
		return idOne
	}
	tg := t.tag(vs)
	slot, id, ok := t.find(vs, tg)
	if ok {
		return id
	}
	return t.insert(slot, vs, tg)
}

// internKey interns a packed encoding (as produced by NewMono), decoding it
// into the scratch buffer.
func (t *monoTab) internKey(key string) uint32 {
	vs := t.scratch[:0]
	for i := 0; i+varBytes <= len(key); i += varBytes {
		vs = append(vs, decodeVar(key[i:i+varBytes]))
	}
	t.scratch = vs
	return t.internVars(vs)
}

// contains reports whether variable v occurs in monomial id.
func (t *monoTab) contains(id uint32, v Var) bool {
	if t.mask[id]&(1<<(uint32(v)&63)) == 0 {
		return false
	}
	for _, w := range t.vars(id) {
		if w >= v {
			return w == v
		}
	}
	return false
}

// mul returns the ID of the idempotent product of monomials a and b.
func (t *monoTab) mul(a, b uint32) uint32 {
	if a == idOne || a == b {
		return b
	}
	if b == idOne {
		return a
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	memoKey := uint64(lo)<<32 | uint64(hi)
	slot, id, ok := t.memo.find(memoKey, t.seed)
	if ok {
		return id
	}
	va, vb := t.vars(a), t.vars(b)
	out := t.scratch[:0]
	i, j := 0, 0
	for i < len(va) && j < len(vb) {
		switch {
		case va[i] < vb[j]:
			out = append(out, va[i])
			i++
		case va[i] > vb[j]:
			out = append(out, vb[j])
			j++
		default:
			out = append(out, va[i])
			i++
			j++
		}
	}
	out = append(out, va[i:]...)
	out = append(out, vb[j:]...)
	t.scratch = out
	id = t.internVars(out)
	t.memo.insert(slot, memoKey, id, t.seed)
	return id
}

// without returns the ID of monomial id with variable v removed (id itself
// if v is absent).
func (t *monoTab) without(id uint32, v Var) uint32 {
	if !t.contains(id, v) {
		return id
	}
	vs := t.vars(id)
	out := t.scratch[:0]
	for _, w := range vs {
		if w != v {
			out = append(out, w)
		}
	}
	t.scratch = out
	return t.internVars(out)
}

// clone returns an independent deep copy of the table.
func (t *monoTab) clone() *monoTab {
	c := *t
	c.slots = append([]uint32(nil), t.slots...)
	c.tags = append([]uint32(nil), t.tags...)
	c.off = append([]uint32(nil), t.off...)
	c.arena = append([]Var(nil), t.arena...)
	c.mask = append([]uint64(nil), t.mask...)
	c.memo = t.memo.clone()
	c.scratch = nil
	return &c
}

// prodMemo is the product memo: a flat open-addressing map from an ID pair
// (lo<<32 | hi, never 0 because neither ID is the constant 1) to the
// product's ID. Keys are hashed under the owning table's seed.
type prodMemo struct {
	keys  []uint64 // 0 when empty
	vals  []uint32
	used  int
	shift uint // 64 - log2(len(keys))
}

// find returns the product memoized under key, or else the empty slot
// where it would go. The memo allocates on first use.
func (m *prodMemo) find(key, seed uint64) (slot int, id uint32, ok bool) {
	if m.keys == nil {
		m.size(32)
	}
	mask := len(m.keys) - 1
	for i := int(mix(seed, key) >> m.shift); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			return i, m.vals[i], true
		case 0:
			return i, 0, false
		}
	}
}

// insert files key -> id at the empty slot find returned, growing past
// half load.
func (m *prodMemo) insert(slot int, key uint64, id uint32, seed uint64) {
	m.keys[slot], m.vals[slot] = key, id
	m.used++
	if 2*m.used <= len(m.keys) {
		return
	}
	keys, vals := m.keys, m.vals
	m.size(2 * m.used)
	mask := len(m.keys) - 1
	for j, k := range keys {
		if k == 0 {
			continue
		}
		i := int(mix(seed, k) >> m.shift)
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i], m.vals[i] = k, vals[j]
	}
}

// reset empties the memo, keeping its size.
func (m *prodMemo) reset() {
	clear(m.keys)
	m.used = 0
}

// size allocates an empty memo for n entries at no more than half load.
func (m *prodMemo) size(n int) {
	size := 32
	for size < 2*n {
		size <<= 1
	}
	m.keys = make([]uint64, size)
	m.vals = make([]uint32, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

func (m *prodMemo) clone() prodMemo {
	c := *m
	c.keys = append([]uint64(nil), m.keys...)
	c.vals = append([]uint32(nil), m.vals...)
	return c
}

// occIndex is a polynomial's occurrence index: per variable, the IDs of the
// monomials containing it, in the order they were added. Variables are
// found through an open-addressing table like monoTab's; each list is a
// chain of entries in one shared pool, linked from its variable's head to
// its tail, so adding an occurrence appends one entry and allocates nothing
// once the pool has grown.
type occIndex struct {
	seed  uint64
	slots []uint32 // open addressing over variable numbers: k+1, 0 when empty
	shift uint     // 64 - log2(len(slots))
	vars  []Var    // k -> variable
	head  []uint32 // k -> first entry of the variable's list
	tail  []uint32 // k -> last entry
	ent   []occEntry
}

// occEntry is one occurrence; next is the following entry of the same
// variable, 0 at the end (entry 0 is a sentinel no list uses).
type occEntry struct {
	id, next uint32
}

// init sizes the pool for about entries occurrences; the variable table
// starts small, since a polynomial has far fewer variables than terms.
func (x *occIndex) init(entries int, seed uint64) {
	x.seed = seed
	x.sizeSlots(0)
	x.ent = make([]occEntry, 1, max(entries, 16)+1)
}

// reset empties the index, keeping its buffers.
func (x *occIndex) reset() {
	clear(x.slots)
	x.vars, x.head, x.tail, x.ent = x.vars[:0], x.head[:0], x.tail[:0], x.ent[:1]
}

func (x *occIndex) sizeSlots(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	x.slots = make([]uint32, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// find returns variable v's list number, or else the empty slot where it
// would go.
func (x *occIndex) find(v Var) (slot int, k uint32, ok bool) {
	mask := len(x.slots) - 1
	for i := int(mix(x.seed, uint64(v)) >> x.shift); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if x.vars[s-1] == v {
			return i, s - 1, true
		}
	}
}

// add appends monomial id to variable v's list.
func (x *occIndex) add(v Var, id uint32) {
	slot, k, ok := x.find(v)
	e := uint32(len(x.ent))
	x.ent = append(x.ent, occEntry{id: id})
	if ok {
		x.ent[x.tail[k]].next = e
		x.tail[k] = e
		return
	}
	k = uint32(len(x.vars))
	x.vars = append(x.vars, v)
	x.head = append(x.head, e)
	x.tail = append(x.tail, e)
	x.slots[slot] = k + 1
	if 2*len(x.vars) > len(x.slots) {
		x.sizeSlots(2 * len(x.vars))
		mask := len(x.slots) - 1
		for k, v := range x.vars {
			i := int(mix(x.seed, uint64(v)) >> x.shift)
			for x.slots[i] != 0 {
				i = (i + 1) & mask
			}
			x.slots[i] = uint32(k) + 1
		}
	}
}

// first returns the first entry of v's list, 0 when v has none. Walk on
// with ent[e].next.
func (x *occIndex) first(v Var) uint32 {
	if _, k, ok := x.find(v); ok {
		return x.head[k]
	}
	return 0
}

func (x *occIndex) clone() occIndex {
	c := *x
	c.slots = append([]uint32(nil), x.slots...)
	c.vars = append([]Var(nil), x.vars...)
	c.head = append([]uint32(nil), x.head...)
	c.tail = append([]uint32(nil), x.tail...)
	c.ent = append([]occEntry(nil), x.ent...)
	return c
}
