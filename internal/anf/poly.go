package anf

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Poly is a multivariate polynomial over GF(2) in ANF: the set of monomials
// with coefficient 1. The zero value is readable (it is the zero polynomial)
// but not writable; construct with NewPoly.
//
// The term set is a bitset over the IDs of the polynomial's private intern
// table (see monoTab): Toggle is a single-word XOR, and AddInPlace merges
// word by word once the operand's monomials are translated. Alongside the
// bitset, a Poly maintains an occurrence index from each variable to the IDs
// of monomials containing it. Lists are append-once — an ID enters the list
// the first time that monomial ever becomes live — and readers filter by the
// live bit, so the index costs nothing to maintain on the cancellation-heavy
// toggle path. The index makes ContainsVar cheap and lets Substitute touch
// only the affected monomials instead of scanning the whole polynomial — the
// difference between quadratic and quartic total cost when rewriting the
// deep Montgomery netlists of Table II.
type Poly struct {
	p *poly
}

type poly struct {
	tab   *monoTab
	words []uint64 // live bitset over tab IDs
	n     int      // live term count
	// occ lists, per variable, every ID that ever contained it and was live
	// at least once; entries are never removed (the live bit is the truth),
	// and listed[id] guards the one-time append.
	occ    occIndex
	listed []bool
	// Reusable scratch for Substitute; kept on the poly so the steady-state
	// substitution path does not allocate.
	affected []uint32
	eIDs     []uint32
}

// NewPoly returns the zero polynomial.
func NewPoly() Poly { return Poly{p: newPolyState(0, 0, 0)} }

// newPolyState returns an empty polynomial with room for about hint
// monomials over arena variable occurrences, hashing under seed (0 draws a
// fresh one).
func newPolyState(hint, arena int, seed uint64) *poly {
	tab := newMonoTab(hint, arena, seed)
	p := &poly{tab: tab}
	p.occ.init(arena, tab.seed)
	return p
}

// Reset sets p to the single variable v. A p that holds tables keeps them:
// their seed and every buffer, emptied, so a polynomial rewritten once per
// cone grows its tables only while a cone is larger than every one before.
// The zero Poly gets fresh tables. Other handles to p's polynomial see the
// reset; a copy that must outlive it is taken with Compact or Clone.
func (p *Poly) Reset(v Var) {
	if p.p == nil {
		p.p = newPolyState(0, 0, 0)
	} else {
		p.p.reset()
	}
	t := p.p.tab
	t.scratch = append(t.scratch[:0], v)
	p.p.toggle(t.internVars(t.scratch))
}

// reset empties p to the zero polynomial, keeping its buffers.
func (p *poly) reset() {
	p.tab.reset()
	p.occ.reset()
	p.words, p.listed, p.n = p.words[:0], p.listed[:0], 0
}

// FromMonos builds a polynomial as the XOR of the given monomials
// (duplicates cancel in pairs).
func FromMonos(monos ...Mono) Poly {
	p := NewPoly()
	for _, m := range monos {
		p.Toggle(m)
	}
	return p
}

// Constant returns the polynomial 0 or 1.
func Constant(one bool) Poly {
	p := NewPoly()
	if one {
		p.Toggle(MonoOne)
	}
	return p
}

// Variable returns the polynomial consisting of the single variable v.
func Variable(v Var) Poly { return FromMonos(NewMono(v)) }

// live reports whether monomial id is a term of the polynomial.
func (p *poly) live(id uint32) bool {
	w := int(id >> 6)
	return w < len(p.words) && p.words[w]&(1<<(id&63)) != 0
}

// toggle XORs monomial id into the term set.
func (p *poly) toggle(id uint32) {
	w := int(id >> 6)
	for w >= len(p.words) {
		p.words = append(p.words, 0)
	}
	bit := uint64(1) << (id & 63)
	if p.words[w]&bit != 0 {
		p.words[w] &^= bit
		p.n--
		return
	}
	p.words[w] |= bit
	p.n++
	for int(id) >= len(p.listed) {
		p.listed = append(p.listed, false)
	}
	if !p.listed[id] {
		p.listed[id] = true
		for _, v := range p.tab.vars(id) {
			p.occ.add(v, id)
		}
	}
}

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	if p.p == nil {
		return NewPoly()
	}
	src := p.p
	return Poly{p: &poly{
		tab:    src.tab.clone(),
		words:  append([]uint64(nil), src.words...),
		n:      src.n,
		occ:    src.occ.clone(),
		listed: append([]bool(nil), src.listed...),
	}}
}

// Len returns the number of monomials.
func (p Poly) Len() int {
	if p.p == nil {
		return 0
	}
	return p.p.n
}

// IsZero reports whether p has no terms.
func (p Poly) IsZero() bool { return p.Len() == 0 }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	return p.p != nil && p.p.n == 1 && len(p.p.words) > 0 && p.p.words[0]&1 == 1
}

// Contains reports whether monomial m has coefficient 1 in p.
func (p Poly) Contains(m Mono) bool {
	if p.p == nil {
		return false
	}
	id, ok := p.p.tab.lookupKey(string(m))
	return ok && p.p.live(id)
}

// ContainsAll reports whether every monomial of ms has coefficient 1 in p —
// the membership test of Algorithm 2 ("if P_m exists in EXP_i").
func (p Poly) ContainsAll(ms []Mono) bool {
	for _, m := range ms {
		if !p.Contains(m) {
			return false
		}
	}
	return true
}

// Toggle XORs monomial m into p: inserts it if absent, cancels it if
// present (coefficient arithmetic mod 2).
func (p Poly) Toggle(m Mono) {
	p.p.toggle(p.p.tab.internKey(string(m)))
}

// AddInPlace XORs q into p.
func (p Poly) AddInPlace(q Poly) {
	if q.p == nil || q.p.n == 0 {
		return
	}
	if p.p == q.p {
		// p + p = 0.
		for i := range p.p.words {
			p.p.words[i] = 0
		}
		p.p.n = 0
		return
	}
	qp := q.p
	for w, word := range qp.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			p.p.toggle(p.p.tab.internVars(qp.tab.vars(uint32(w<<6 + b))))
		}
	}
}

// Add returns p + q (XOR of term sets).
func (p Poly) Add(q Poly) Poly {
	r := p.Clone()
	r.AddInPlace(q)
	return r
}

// Mul returns the product p·q, expanding term by term with idempotent
// monomial multiplication and mod-2 cancellation.
func (p Poly) Mul(q Poly) Poly {
	r := NewPoly()
	if p.p == nil || q.p == nil {
		return r
	}
	rp := r.p
	// Translate q's terms into r's table once, then expand.
	qIDs := make([]uint32, 0, q.p.n)
	for w, word := range q.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			qIDs = append(qIDs, rp.tab.internVars(q.p.tab.vars(uint32(w<<6+b))))
		}
	}
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			a := rp.tab.internVars(p.p.tab.vars(uint32(w<<6 + b)))
			for _, t := range qIDs {
				rp.toggle(rp.tab.mul(a, t))
			}
		}
	}
	return r
}

// Monos returns the monomials of p in a deterministic (lexicographic by
// encoding, which is ascending-variable) order. The Mono strings are built
// here, on demand: the polynomial itself keeps none.
func (p Poly) Monos() []Mono {
	if p.p == nil {
		return nil
	}
	tab := p.p.tab
	// One backing buffer for every encoding, carved into the Monos.
	size := 0
	p.Terms(func(vs []Var) bool { size += len(vs) * varBytes; return true })
	buf := make([]byte, 0, size)
	offs := make([]int, 0, p.p.n+1)
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			offs = append(offs, len(buf))
			for _, v := range tab.vars(uint32(w<<6 + b)) {
				buf = append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
		}
	}
	offs = append(offs, len(buf))
	all := string(buf)
	out := make([]Mono, 0, p.p.n)
	for i := 0; i+1 < len(offs); i++ {
		out = append(out, Mono(all[offs[i]:offs[i+1]]))
	}
	sort.Slice(out, func(i, j int) bool { return monoLess(string(out[i]), string(out[j])) })
	return out
}

// Terms calls yield with the ascending variable list of each monomial of p
// (empty for the constant 1), stopping early when yield returns false. The
// lists alias p's intern arena: they are read-only and valid only until p is
// next modified. The order is the table's, not Monos' sorted order; in
// exchange the walk allocates nothing, which is what the per-bit
// golden-model check and port inference need on expressions of tens of
// thousands of terms.
func (p Poly) Terms(yield func(vars []Var) bool) {
	if p.p == nil {
		return
	}
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if !yield(p.p.tab.vars(uint32(w<<6 + b))) {
				return
			}
		}
	}
}

// Equal reports whether p and q have identical term sets. Because ANF is
// canonical, this decides functional equivalence of the represented Boolean
// functions.
func (p Poly) Equal(q Poly) bool {
	if p.Len() != q.Len() {
		return false
	}
	if p.p == nil || q.p == nil || p.p == q.p {
		return true // equal lengths and at least one side empty or aliased
	}
	qp := q.p
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id, ok := qp.tab.lookupVars(p.p.tab.vars(uint32(w<<6 + b)))
			if !ok || !qp.live(id) {
				return false
			}
		}
	}
	return true
}

// SupportVars returns the set of variables appearing in p, ascending.
func (p Poly) SupportVars() []Var {
	if p.p == nil {
		return nil
	}
	out := make([]Var, 0, len(p.p.occ.vars))
	p.EachSupportVar(func(v Var) bool { out = append(out, v); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachSupportVar calls yield with every variable appearing in p, in the
// occurrence index's order rather than ascending, stopping early when yield
// returns false. Unlike SupportVars it neither sorts nor allocates.
func (p Poly) EachSupportVar(yield func(Var) bool) {
	if p.p == nil {
		return
	}
	occ := &p.p.occ
	for k, v := range occ.vars {
		for e := occ.head[k]; e != 0; e = occ.ent[e].next {
			if p.p.live(occ.ent[e].id) {
				if !yield(v) {
					return
				}
				break
			}
		}
	}
}

// ContainsVar reports whether variable v occurs anywhere in p.
func (p Poly) ContainsVar(v Var) bool {
	if p.p == nil {
		return false
	}
	occ := &p.p.occ
	for e := occ.first(v); e != 0; e = occ.ent[e].next {
		if p.p.live(occ.ent[e].id) {
			return true
		}
	}
	return false
}

// VarOccurrences returns the number of monomials of p that contain v.
// It makes mod-2 cancellation accounting exact: substituting v by e turns
// the k = VarOccurrences(v) affected monomials into k·|e| expansion terms,
// so the expansion yields Len()-k+k·|e| terms before cancellation collapses
// colliding pairs.
func (p Poly) VarOccurrences(v Var) int {
	if p.p == nil {
		return 0
	}
	n := 0
	occ := &p.p.occ
	for e := occ.first(v); e != 0; e = occ.ent[e].next {
		if p.p.live(occ.ent[e].id) {
			n++
		}
	}
	return n
}

// Substitute replaces every occurrence of variable v in p by the expression
// e, in place — one iteration of backward rewriting (lines 4–12 of
// Algorithm 1). Monomials produced by the expansion that collide with
// existing monomials cancel mod 2 immediately. e must not contain v (true
// for any acyclic netlist); Substitute panics otherwise, since the rewriting
// would not terminate.
func (p Poly) Substitute(v Var, e Poly) {
	if e.ContainsVar(v) {
		panic(fmt.Sprintf("anf: substitution expression for v%d contains v%d (combinational cycle?)", v, v))
	}
	pp := p.p
	if !pp.collectAffected(v) {
		return
	}
	// Translate e's terms into p's table once; after that the expansion is
	// pure ID arithmetic (memoized products + bit toggles).
	eIDs := pp.eIDs[:0]
	if e.p != nil {
		for w, word := range e.p.words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				eIDs = append(eIDs, pp.tab.internVars(e.p.tab.vars(uint32(w<<6+b))))
			}
		}
	}
	pp.eIDs = eIDs
	pp.expand(v)
}

// collectAffected gathers the live monomials containing v into p.affected
// and reports whether there are any.
func (p *poly) collectAffected(v Var) bool {
	aff := p.affected[:0]
	for e := p.occ.first(v); e != 0; e = p.occ.ent[e].next {
		if id := p.occ.ent[e].id; p.live(id) {
			aff = append(aff, id)
		}
	}
	p.affected = aff
	return len(aff) > 0
}

// expand is the substitution step shared by Substitute and SubstituteTerms:
// every affected monomial m·v is replaced by the products m·t over the
// expression's interned terms p.eIDs, cancelling mod 2 as it goes.
func (p *poly) expand(v Var) {
	for _, id := range p.affected {
		p.toggle(id) // all live: removes
	}
	for _, id := range p.affected {
		base := p.tab.without(id, v)
		for _, t := range p.eIDs {
			p.toggle(p.tab.mul(base, t))
		}
	}
}

// Compact returns an equal polynomial copied into fresh tables sized for
// exactly the live terms. A heavily rewritten Poly retains every monomial
// its history ever interned plus the product memo; for a finished
// expression that churn is pure dead weight. Rewriting engines call Compact
// once per finished cone, so long-lived results (checkpoint snapshots,
// per-bit expressions of a GF(2^571) run) hold only their final terms. The
// copy keeps p's seed, so each monomial keeps its hash tag and is filed
// without being hashed or compared again.
func (p Poly) Compact() Poly {
	if p.p == nil {
		return NewPoly()
	}
	src := p.p
	arena := 0
	p.Terms(func(vs []Var) bool { arena += len(vs); return true })
	qp := newPolyState(src.n+1, arena, src.tab.seed)
	qp.words = make([]uint64, 0, (src.n+1+63)/64)
	qp.listed = make([]bool, 0, src.n+1)
	for w, word := range src.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id := uint32(w<<6 + b)
			if id == idOne {
				qp.toggle(idOne)
				continue
			}
			// Live monomials are distinct, so each goes straight into the
			// first free slot of its home chain.
			tg := src.tab.tags[id]
			mask := len(qp.tab.slots) - 1
			i := int(tg >> qp.tab.shift)
			for qp.tab.slots[i] != 0 {
				i = (i + 1) & mask
			}
			qp.toggle(qp.tab.insert(i, src.tab.vars(id), tg))
		}
	}
	return Poly{p: qp}
}

// Eval evaluates p under an assignment of its variables.
func (p Poly) Eval(assign func(Var) bool) bool {
	if p.p == nil {
		return false
	}
	acc := false
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			term := true
			for _, v := range p.p.tab.vars(uint32(w<<6 + b)) {
				if !assign(v) {
					term = false
					break
				}
			}
			if term {
				acc = !acc
			}
		}
	}
	return acc
}

// MaxDeg returns the largest monomial degree in p (0 for constants; -1 for
// the zero polynomial).
func (p Poly) MaxDeg() int {
	d := -1
	if p.p == nil {
		return d
	}
	for w, word := range p.p.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if md := p.p.tab.deg(uint32(w<<6 + b)); md > d {
				d = md
			}
		}
	}
	return d
}

// String renders p deterministically, e.g. "v1·v2+v3+1"; "0" for zero.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	monos := p.Monos()
	parts := make([]string, len(monos))
	for i, m := range monos {
		parts[i] = m.String()
	}
	return strings.Join(parts, "+")
}

// FromTruthTable computes the ANF of an arbitrary k-input Boolean function
// given its truth table, using the Möbius (binary zeta) transform. Bit i of
// the table is the function value when input j equals bit j of i. Gate
// models use the same transform through Terms.SetFunc; this entry accepts
// inputs in any order, with duplicates.
//
// inputs lists the variable for each function input; len(table) must be
// 1<<len(inputs). k up to 20 is supported (beyond that the table itself is
// the bottleneck).
func FromTruthTable(inputs []Var, table []bool) (Poly, error) {
	k := len(inputs)
	if k > 20 {
		return Poly{}, fmt.Errorf("anf: truth table with %d inputs too large", k)
	}
	if len(table) != 1<<uint(k) {
		return Poly{}, fmt.Errorf("anf: table has %d rows for %d inputs; want %d", len(table), k, 1<<uint(k))
	}
	coeff := make([]bool, len(table))
	copy(coeff, table)
	mobius(coeff, k)
	p := NewPoly()
	vars := make([]Var, 0, k)
	for s, c := range coeff {
		if c {
			p.Toggle(NewMono(maskVars(vars[:0], inputs, uint32(s))...))
		}
	}
	return p, nil
}
