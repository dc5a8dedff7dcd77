package netlint

import (
	"math/bits"
	"slices"

	"github.com/galoisfield/gfre/internal/netlist"
)

// gateScan holds what the structural rules and the cost predictor read of
// each gate, gathered in newContext's one forward sweep: every gate is
// read once per Analyze instead of once per rule.
type gateScan struct {
	// bounds[id] is the no-cancellation term bound of gate id (gateBound).
	bounds []int32
	// consts and folds list, ascending, the constant gates and the gates
	// with a constant fanin (const-gate).
	consts, folds []int
	// selfCancel, bufs: two-input gates reading one signal twice and
	// pass-through buffers, ascending (redundant-gate).
	selfCancel, bufs []int
	// Gate-mix counters of the architecture fingerprint.
	xors, ands, partialAnds, internalAnds, complexCells, combinational int
}

// gatePass holds what Analyze's second pass over the gates finds
// (structure): which gates some gate reads, and the structural duplicates.
// Its arrays are kept with the context's between analyses (see
// gateArrays).
type gatePass struct {
	// read is a bitset over gate IDs: bit id is set when a gate reads
	// gate id or an output port is gate id (see allReached).
	read []uint64
	// dupTags[id] hashes gate id's type and fanins, 0 for a gate the
	// duplicate finder skips, and marks is the duplicate finder's bucket
	// bitmap.
	dupTags []uint32
	marks   []uint64
	// dups lists the structural duplicates, ascending.
	dups []int
}

// gate records gate id, of type typ on fanins fanin; types holds the
// types of gates 0..id.
func (s *gateScan) gate(id int, typ netlist.GateType, fanin []int, types []netlist.GateType) {
	s.bounds[id] = gateBound(typ, fanin, s.bounds)
	switch typ {
	case netlist.Const0, netlist.Const1:
		s.consts = append(s.consts, id)
		return
	case netlist.Input:
		return
	case netlist.Xor:
		s.xors++
	case netlist.And:
		s.ands++
		if len(fanin) == 2 && types[fanin[0]] == netlist.Input && types[fanin[1]] == netlist.Input {
			s.partialAnds++
		} else {
			s.internalAnds++
		}
	case netlist.Buf:
		// Neutral: buffers say nothing about architecture.
	default:
		s.complexCells++
	}
	s.combinational++
	for _, f := range fanin {
		if t := types[f]; t == netlist.Const0 || t == netlist.Const1 {
			s.folds = append(s.folds, id)
			break
		}
	}
	switch typ {
	case netlist.Lut:
		return
	case netlist.Buf:
		s.bufs = append(s.bufs, id)
	}
	if len(fanin) == 2 && fanin[0] == fanin[1] {
		// x^x = 0, x·x = x, x+x = x, etc.: degenerate either way.
		s.selfCancel = append(s.selfCancel, id)
	}
}

// allReached reports whether every gate of n lies in some output's fanin
// cone: a gate that no gate reads and that drives no output is outside
// every cone, and when there is none, every gate's chain of readers ends
// at an output.
func (p *gatePass) allReached(n *netlist.Netlist) bool {
	ng := n.NumGates()
	for w, r := range p.read {
		full := ^uint64(0)
		if k := ng - 64*w; k < 64 {
			full = 1<<uint(k) - 1
		}
		if r != full {
			return false
		}
	}
	return true
}

// structure is the second pass over n's gates: it fills the read bitset
// and finds the structural duplicates, the gates with the same type and
// fanin list as an earlier gate. It reads the gates itself rather than the
// context sweep's results, so the goroutine of Analyze that finishes its
// own sweep first runs it without waiting for the other's. Equal gates
// have equal tags, so the pass tags every gate and marks, in a bitmap over
// the tags' top bits small enough to stay in cache, the buckets two or
// more gates share; only the gates in such a bucket, a few percent of
// them, then go in id order through an open-addressing table, where a
// probe compares tags and then the gates themselves, so detection is
// exact.
func (p *gatePass) structure(n *netlist.Netlist) {
	read, tags := p.read, p.dupTags
	clear(read)
	for i := range n.NumOutputs() {
		o := n.Output(i)
		read[o>>6] |= 1 << uint(o&63)
	}
	// Two bits per bucket, "seen" and "shared", side by side in one word.
	shift := 32 - bits.Len(uint(8*max(len(tags), 1)-1)) // about 8 buckets per gate
	p.marks = slices.Grow(p.marks[:0], (1<<(32-shift)+31)/32)[:(1<<(32-shift)+31)/32]
	marks := p.marks
	clear(marks)
	nshared := 0
	for id := range tags {
		typ, fanin := n.Cell(id)
		h := uint64(1469598103934665603)
		h = (h ^ uint64(typ)) * 1099511628211
		for _, f := range fanin {
			read[f>>6] |= 1 << uint(f&63)
			h = (h ^ (uint64(f) + 1)) * 1099511628211
		}
		switch typ {
		case netlist.Input, netlist.Const0, netlist.Const1, netlist.Lut:
			tags[id] = 0
			continue
		}
		tag := uint32((h*0x9e3779b97f4a7c15)>>32) | 1
		tags[id] = tag
		b := tag >> shift
		w, seen := &marks[b>>5], uint64(1)<<(2*(b&31))
		if *w&seen != 0 {
			*w |= seen << 1
			nshared++
		} else {
			*w |= seen
		}
	}
	p.dups = nil
	if nshared == 0 {
		return
	}
	// A shared bucket holds at most twice as many gates as second hits.
	size := 16
	for size < 4*nshared {
		size <<= 1
	}
	table := make([]uint64, size) // tag<<32 | id+1, 0 when empty
	tshift := 64 - bits.TrailingZeros(uint(size))
	for id, tag := range tags {
		if tag == 0 {
			continue
		}
		if b := tag >> shift; marks[b>>5]>>(2*(b&31)+1)&1 == 0 {
			continue
		}
		i := int((uint64(tag) * 0x9e3779b97f4a7c15) >> tshift)
		for ; table[i] != 0; i = (i + 1) & (size - 1) {
			if uint32(table[i]>>32) == tag {
				g, e := n.Gate(id), n.Gate(int(uint32(table[i]))-1)
				if e.Type == g.Type && slices.Equal(e.Fanin, g.Fanin) {
					p.dups = append(p.dups, id)
					break
				}
			}
		}
		if table[i] == 0 {
			table[i] = uint64(tag)<<32 | uint64(id+1)
		}
	}
}
