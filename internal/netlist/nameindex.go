package netlist

import (
	"hash/maphash"
	"math/bits"
)

// nameIndex is a netlist's name table, mapping signal names to gate IDs: an
// open-addressing table probed linearly, one word per slot and no strings
// of its own. A slot holds a name's 32-bit hash tag over a reference, 0
// when empty. Reference id+1 is gate id, keyed by its current name
// names[id]; a reference with aliasRef set indexes aliases, the earlier
// names of gates that were named again, which keep resolving to their
// gates. A self-named gate, gate k named "n<k>", has no slot for that
// name: Netlist.Lookup resolves it from names[k] alone, so the index holds
// only the other names, in a generated multiplier little more than its
// ports. A probe compares tags first and only then the key string. A
// tag's top bits are its home slot, so growing re-homes slots without
// hashing a name again. The seed is per index, as Go's maps are, so a
// submitted netlist cannot aim its names at one probe chain.
type nameIndex struct {
	seed    maphash.Seed
	slots   []uint64 // tag<<32 | reference
	shift   uint     // 32 - log2(len(slots))
	used    int
	aliases []nameAlias
}

type nameAlias struct {
	name string
	id   int
}

const aliasRef = 1 << 31

// key returns the name a slot reference stands for and the gate it names.
func (x *nameIndex) key(ref uint32, names []string) (string, int) {
	if ref&aliasRef != 0 {
		a := x.aliases[ref&^aliasRef]
		return a.name, a.id
	}
	return names[ref-1], int(ref - 1)
}

// find returns the slot holding name, or else the empty slot where name
// would go, and name's tag. The table must not be empty.
func (x *nameIndex) find(name string, names []string) (i int, tag uint64, found bool) {
	tag = maphash.String(x.seed, name) >> 32
	mask := len(x.slots) - 1
	for i = int(tag >> x.shift); x.slots[i] != 0; i = (i + 1) & mask {
		if s := x.slots[i]; s>>32 == tag {
			if k, _ := x.key(uint32(s), names); k == name {
				return i, tag, true
			}
		}
	}
	return i, tag, false
}

// lookup returns the gate that name names.
func (x *nameIndex) lookup(name string, names []string) (int, bool) {
	if x.used == 0 {
		return 0, false
	}
	i, _, ok := x.find(name, names)
	if !ok {
		return 0, false
	}
	_, id := x.key(uint32(x.slots[i]), names)
	return id, true
}

// reserve sizes the table for extra more names at no more than half load.
func (x *nameIndex) reserve(extra int) {
	want := 2 * (x.used + extra)
	if want <= len(x.slots) {
		return
	}
	if x.slots == nil {
		x.seed = maphash.MakeSeed()
	}
	old := x.slots
	x.slots = make([]uint64, max(1<<bits.Len(uint(want-1)), 16))
	x.shift = uint(32 - bits.TrailingZeros(uint(len(x.slots))))
	mask := len(x.slots) - 1
	for _, s := range old {
		if s != 0 {
			i := int(s >> 32 >> x.shift)
			for x.slots[i] != 0 {
				i = (i + 1) & mask
			}
			x.slots[i] = s
		}
	}
}

// set binds name to gate id before the caller makes it names[id]. If name
// already names another gate, it changes nothing and reports false. The
// gate's current name, if any, stays bound to it as an alias.
func (x *nameIndex) set(name string, id int, names []string) bool {
	x.reserve(2) // name, and the gate's self name if set retires one
	i, tag, found := x.find(name, names)
	if found {
		if _, other := x.key(uint32(x.slots[i]), names); other != id {
			return false
		}
	}
	if cur := names[id]; cur != "" && cur != name && x.retire(cur, id, names) {
		i, tag, _ = x.find(name, names)
	}
	if !found {
		x.slots[i] = tag<<32 | uint64(id+1)
		x.used++
	}
	return true
}

// retire keeps name, the current name of gate id that the caller is about
// to replace, bound to the gate as an alias. It reports whether that took
// a new slot, which happens when name was a self name the index never held.
func (x *nameIndex) retire(name string, id int, names []string) bool {
	x.reserve(1)
	j, tag, found := x.find(name, names)
	if !found {
		x.slots[j] = tag<<32 | uint64(aliasRef|len(x.aliases))
		x.aliases = append(x.aliases, nameAlias{name, id})
		x.used++
		return true
	}
	// name's slot is about to lose its key; re-key it as an alias. It may
	// be one already, when name was itself bound through an alias.
	if ref := uint32(x.slots[j]); ref&aliasRef == 0 {
		x.slots[j] = x.slots[j]&^(1<<32-1) | uint64(aliasRef|len(x.aliases))
		x.aliases = append(x.aliases, nameAlias{name, id})
	}
	return false
}
