package anf

import "fmt"

// Terms is a polynomial over a handful of variables in the shape gate models
// take. Vars lists the variables in strictly ascending order; each entry of
// Masks is one monomial, bit i selecting Vars[i] (mask 0 is the constant 1).
// Writers keep Masks distinct, so Len is the polynomial's term count.
//
// A caller owns one Terms and refills it for every gate it rewrites
// (netlist.GateTerms); Poly.SubstituteTerms reads it in place, so building
// and substituting a gate model allocates nothing once the buffers have
// grown.
type Terms struct {
	Vars  []Var
	Masks []uint32
	table []bool // truth-table scratch for SetFunc
}

// Len returns the number of terms.
func (t *Terms) Len() int { return len(t.Masks) }

// SetFunc sets t to the ANF of a Boolean function of vars (strictly
// ascending): f(row) is the function's value when vars[i] carries bit i of
// row. The coefficients come from the Möbius transform of the truth table,
// so the terms are distinct and in ascending mask order.
func (t *Terms) SetFunc(vars []Var, f func(row int) bool) {
	t.Vars = append(t.Vars[:0], vars...)
	rows := 1 << uint(len(vars))
	if cap(t.table) < rows {
		t.table = make([]bool, rows)
	}
	table := t.table[:rows]
	for r := range table {
		table[r] = f(r)
	}
	mobius(table, len(vars))
	t.Masks = t.Masks[:0]
	for s, c := range table {
		if c {
			t.Masks = append(t.Masks, uint32(s))
		}
	}
}

// mobius turns the truth table of a k-input function into its ANF
// coefficients in place: coeff[S] = XOR of f(T) over T ⊆ S (the binary zeta
// transform).
func mobius(coeff []bool, k int) {
	for i := 0; i < k; i++ {
		bit := 1 << uint(i)
		for s := range coeff {
			if s&bit != 0 {
				coeff[s] = coeff[s] != coeff[s^bit]
			}
		}
	}
}

// Poly returns t as a polynomial.
func (t *Terms) Poly() Poly {
	p := NewPoly()
	vs := make([]Var, 0, len(t.Vars))
	for _, m := range t.Masks {
		p.Toggle(NewMono(maskVars(vs[:0], t.Vars, m)...))
	}
	return p
}

// maskVars appends the variables of vars that mask selects, in order.
func maskVars(dst, vars []Var, mask uint32) []Var {
	for i, v := range vars {
		if mask&(1<<uint(i)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// SubstituteTerms is Substitute with the expression given as Terms — the
// rewriting loop's entry, which interns each term straight into p's table
// instead of building a Poly for it. Duplicate masks cancel in pairs like
// any repeated term. It panics if e.Vars is not strictly ascending or if a
// term of e contains v (a combinational cycle).
func (p Poly) SubstituteTerms(v Var, e *Terms) {
	for i, w := range e.Vars {
		if i > 0 && w <= e.Vars[i-1] {
			panic(fmt.Sprintf("anf: substitution terms for v%d: variables not strictly ascending", v))
		}
		if w != v {
			continue
		}
		for _, m := range e.Masks {
			if m&(1<<uint(i)) != 0 {
				panic(fmt.Sprintf("anf: substitution expression for v%d contains v%d (combinational cycle?)", v, v))
			}
		}
	}
	pp := p.p
	if !pp.collectAffected(v) {
		return
	}
	eIDs := pp.eIDs[:0]
	for _, m := range e.Masks {
		vs := maskVars(pp.tab.scratch[:0], e.Vars, m)
		pp.tab.scratch = vs
		eIDs = append(eIDs, pp.tab.internVars(vs))
	}
	pp.eIDs = eIDs
	pp.expand(v)
}
