// Package anf implements multivariate polynomial algebra over GF(2) in
// algebraic normal form (ANF), the computer-algebra core of the backward
// rewriting technique (Algorithm 1 of the paper).
//
// A polynomial is an XOR (sum mod 2) of monomials; a monomial is a product
// of distinct Boolean variables (idempotence x² = x is built into the
// representation, i.e. we compute in the quotient by the ideal
// J₀ = ⟨x² − x⟩ that the paper's formulation uses). The empty monomial is
// the constant 1. ANF is canonical: two polynomials represent the same
// Boolean function iff they have identical term sets, which is what makes
// the golden-model equivalence check in package extract a complete decision
// procedure.
//
// Internally each Poly interns its monomials into dense uint32 IDs (see
// intern.go) and keeps the term set as a bitset over those IDs, so mod-2
// cancellation — the step that keeps GF(2^m) rewriting from exploding
// (lines 7–11 of Algorithm 1) — is a single-word XOR. The intern table, the
// product memo and the occurrence index are flat open-addressing tables
// over variable lists and IDs: no per-monomial string and no Go map.
// Toggling and re-interning known monomials allocate nothing; substitution
// allocates only when a table doubles, and gate models reach it as Terms
// without a Poly of their own. The string-based Mono type remains the
// public currency for individual monomials; a Poly keeps none, and builds
// them on demand in Monos and String, while Contains and Toggle hash a
// Mono's encoding in place.
// The previous map-of-strings implementation is preserved unmodified in
// internal/anf/reference as a differential testing oracle.
package anf

import (
	"fmt"
	"sort"
	"strings"
)

// Var identifies a Boolean variable. The mapping from netlist signals to
// Vars is owned by the caller (package rewrite uses gate IDs).
type Var uint32

// Mono is a monomial: a product of distinct variables, encoded as the
// concatenation of the 4-byte big-endian representations of its variables in
// ascending order. The empty string is the constant 1. The encoding orders
// monomials of one degree by their variables, which is the canonical order
// of Monos and String.
type Mono string

// MonoOne is the constant-1 monomial.
const MonoOne Mono = ""

const varBytes = 4

func encodeVar(v Var) [varBytes]byte {
	return [varBytes]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func decodeVar(s string) Var {
	return Var(s[0])<<24 | Var(s[1])<<16 | Var(s[2])<<8 | Var(s[3])
}

// NewMono builds a monomial from variables. Duplicates collapse
// (idempotence) and order is irrelevant.
func NewMono(vars ...Var) Mono {
	switch len(vars) {
	case 0:
		return MonoOne
	case 1:
		b := encodeVar(vars[0])
		return Mono(b[:])
	}
	vs := make([]Var, len(vars))
	copy(vs, vars)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	buf := make([]byte, 0, len(vs)*varBytes)
	var prev Var
	for i, v := range vs {
		if i > 0 && v == prev {
			continue
		}
		b := encodeVar(v)
		buf = append(buf, b[:]...)
		prev = v
	}
	return Mono(buf)
}

// Deg returns the number of variables in the monomial (0 for the constant 1).
func (m Mono) Deg() int { return len(m) / varBytes }

// IsOne reports whether m is the constant 1.
func (m Mono) IsOne() bool { return len(m) == 0 }

// Vars returns the variables of m in ascending order.
func (m Mono) Vars() []Var {
	out := make([]Var, 0, m.Deg())
	for i := 0; i < len(m); i += varBytes {
		out = append(out, decodeVar(string(m[i:i+varBytes])))
	}
	return out
}

// Contains reports whether variable v occurs in m.
func (m Mono) Contains(v Var) bool {
	n := m.Deg()
	i := sort.Search(n, func(i int) bool {
		return decodeVar(string(m[i*varBytes:i*varBytes+varBytes])) >= v
	})
	return i < n && decodeVar(string(m[i*varBytes:i*varBytes+varBytes])) == v
}

// Without returns m with variable v removed (m unchanged if v is absent).
func (m Mono) Without(v Var) Mono {
	for i := 0; i < len(m); i += varBytes {
		if decodeVar(string(m[i:i+varBytes])) == v {
			return m[:i] + m[i+varBytes:]
		}
	}
	return m
}

// MulMono returns the product of two monomials: the union of their variable
// sets (idempotence collapses shared variables).
func MulMono(a, b Mono) Mono {
	if a.IsOne() {
		return b
	}
	if b.IsOne() {
		return a
	}
	buf := make([]byte, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		va := decodeVar(string(a[i : i+varBytes]))
		vb := decodeVar(string(b[j : j+varBytes]))
		switch {
		case va < vb:
			buf = append(buf, a[i:i+varBytes]...)
			i += varBytes
		case va > vb:
			buf = append(buf, b[j:j+varBytes]...)
			j += varBytes
		default:
			buf = append(buf, a[i:i+varBytes]...)
			i += varBytes
			j += varBytes
		}
	}
	buf = append(buf, a[i:]...)
	buf = append(buf, b[j:]...)
	return Mono(buf)
}

// Eval evaluates the monomial under an assignment.
func (m Mono) Eval(assign func(Var) bool) bool {
	for i := 0; i < len(m); i += varBytes {
		if !assign(decodeVar(string(m[i : i+varBytes]))) {
			return false
		}
	}
	return true
}

// String renders the monomial for debugging, e.g. "v3·v7" or "1".
func (m Mono) String() string {
	if m.IsOne() {
		return "1"
	}
	parts := make([]string, 0, m.Deg())
	for _, v := range m.Vars() {
		parts = append(parts, fmt.Sprintf("v%d", v))
	}
	return strings.Join(parts, "·")
}

// monoLess is the canonical monomial order used by Monos and String:
// ascending degree, then lexicographic on the packed encoding (which is
// ascending-variable order).
func monoLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}
