package sem

import (
	"sort"
	"strconv"
	"strings"
)

// Class labels a primary input's role in the inferred operand partition.
type Class uint8

const (
	// ClassA / ClassB are the two multiplication operand vectors.
	ClassA Class = iota
	ClassB
	// ClassKey marks surplus inputs outside both operand vectors. For a
	// clean GF(2^m) multiplier the partition is exhaustive (2m inputs, two
	// vectors of m), so a key-classed input is itself a finding: it is the
	// structural signature of logic-locking keys and opaque constants.
	ClassKey
)

func (c Class) String() string {
	switch c {
	case ClassA:
		return "a"
	case ClassB:
		return "b"
	}
	return "key"
}

// Ports is the operand partition of a netlist's primary inputs, inferred
// from port naming the same way extraction's port identifier works: bit
// vectors are grouped by alphabetic prefix (a3 / a[3] / a_3 spellings).
type Ports struct {
	// Partitioned reports whether two operand vectors could be identified.
	// When false every input is classed ClassA and the per-operand degree
	// split degenerates to the total degree; key detection is disabled (an
	// unnamed or scrambled design gives no basis for calling an input
	// surplus, and guessing would fabricate false positives).
	Partitioned bool
	// APrefix / BPrefix name the chosen operand vectors.
	APrefix, BPrefix string
	// AWidth / BWidth are the vector widths.
	AWidth, BWidth int
	// Class is indexed by input position (the order of Netlist.Inputs()).
	Class []Class
	// KeyInputs holds the gate IDs of ClassKey inputs, ascending.
	KeyInputs []int
}

// SplitPortName splits a port name into its alphabetic prefix and the
// digits of its bit index, accepting the a3, a[3] and a_3 spellings: the
// name must read ^([A-Za-z_]+?)_?\[?(\d+)\]?$, and prefix and digits are
// the two groups, the prefix as short as the pattern allows. It is the
// convention both the operand classifier and netlint's io-naming rule read
// port vectors by.
func SplitPortName(name string) (prefix, digits string, ok bool) {
	s := strings.TrimSuffix(name, "]")
	i := len(s)
	for i > 0 && '0' <= s[i-1] && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return "", "", false
	}
	s, digits = strings.TrimSuffix(s[:i], "["), s[i:]
	if len(s) >= 2 && s[len(s)-1] == '_' {
		s = s[:len(s)-1]
	}
	if s == "" {
		return "", "", false
	}
	for _, c := range []byte(s) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_') {
			return "", "", false
		}
	}
	return s, digits, true
}

// operandish prefixes get priority when several equal-width vectors compete
// for the operand slots; conventional operand names beat key/control names.
var operandish = map[string]bool{
	"a": true, "b": true, "x": true, "y": true, "A": true, "B": true,
	"in": true, "op": true, "opa": true, "opb": true,
}

// classify infers the operand partition from the named input list. ids are
// primary-input gate IDs in port order, names their signal names.
func classify(ids []int, names []string) Ports {
	p := Ports{Class: make([]Class, len(ids))}

	type vec struct {
		prefix  string
		members []int // input positions
	}
	byPrefix := map[string]*vec{}
	var order []string // first-seen prefix order, for determinism
	loose := []int{}   // positions whose names defy the convention
	for i, name := range names {
		pre, _, ok := SplitPortName(name)
		if !ok {
			loose = append(loose, i)
			continue
		}
		v := byPrefix[pre]
		if v == nil {
			v = &vec{prefix: pre}
			byPrefix[pre] = v
			order = append(order, pre)
		}
		v.members = append(v.members, i)
	}

	vecs := make([]*vec, 0, len(order))
	for _, pre := range order {
		vecs = append(vecs, byPrefix[pre])
	}
	// Operand vectors: prefer the widest equal-width pair (multiplier
	// operands always match in width, key vectors usually don't), break
	// ties toward conventional operand prefixes, then name order. Sorting
	// is stable on the width/priority key so equal candidates keep a
	// deterministic order.
	sort.SliceStable(vecs, func(i, j int) bool {
		vi, vj := vecs[i], vecs[j]
		if len(vi.members) != len(vj.members) {
			return len(vi.members) > len(vj.members)
		}
		oi, oj := operandish[vi.prefix], operandish[vj.prefix]
		if oi != oj {
			return oi
		}
		return vi.prefix < vj.prefix
	})
	// Among the sorted candidates pick the first pair with equal widths >= 2;
	// a width-1 pair counts only when both prefixes are conventional operand
	// names (the degenerate m=1 multiplier), never on naming accidents.
	ai, bi := -1, -1
	for i := 0; i+1 < len(vecs) && ai < 0; i++ {
		w := len(vecs[i].members)
		if w != len(vecs[i+1].members) {
			continue
		}
		if w >= 2 || (w == 1 && operandish[vecs[i].prefix] && operandish[vecs[i+1].prefix]) {
			ai, bi = i, i+1
		}
	}
	if ai < 0 {
		// No equal-width pair: fall back to the two widest vectors when
		// both are plausible (>= 2 bits each).
		if len(vecs) >= 2 && len(vecs[0].members) >= 2 && len(vecs[1].members) >= 2 {
			ai, bi = 0, 1
		}
	}
	if ai < 0 {
		// Unpartitionable: single vector, anonymous naming, or degenerate
		// widths. Everything is ClassA (degTot carries the information).
		return p
	}
	a, b := vecs[ai], vecs[bi]
	// Keep the conventional a-before-b orientation when both match.
	if !operandish[a.prefix] && operandish[b.prefix] || a.prefix > b.prefix && operandish[a.prefix] == operandish[b.prefix] {
		a, b = b, a
	}
	p.Partitioned = true
	p.APrefix, p.BPrefix = a.prefix, b.prefix
	p.AWidth, p.BWidth = len(a.members), len(b.members)

	inA := map[int]bool{}
	for _, pos := range a.members {
		inA[pos] = true
	}
	inB := map[int]bool{}
	for _, pos := range b.members {
		inB[pos] = true
	}
	for pos := range names {
		switch {
		case inA[pos]:
			p.Class[pos] = ClassA
		case inB[pos]:
			p.Class[pos] = ClassB
		default:
			p.Class[pos] = ClassKey
			p.KeyInputs = append(p.KeyInputs, ids[pos])
		}
	}
	sort.Ints(p.KeyInputs)
	return p
}

// bitIndex parses the bit position out of a conventional port name
// (unused bits return -1). Exposed for tests.
func bitIndex(name string) int {
	_, digits, ok := SplitPortName(name)
	if !ok {
		return -1
	}
	v, err := strconv.Atoi(digits)
	if err != nil {
		return -1
	}
	return v
}
