package extract

import (
	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/polytab"
)

// The golden model. Output bit c of a GF(2^m) multiplier mod P(x) is
//
//	z_c = Σ_k [x^k mod P has coefficient c] · s_k,  s_k = Σ_{i+j=k} a_i·b_j,
//
// so its specification ANF is fixed by one column of the paper's Figure 1
// reduction table: the set K_c of partial-product indices k that fold into
// column c. Products a_i·b_j are distinct monomials for distinct (i,j), so
// the specification has exactly Σ_{k ∈ K_c} #{(i,j) : i+j = k} terms, none
// repeated. An extracted expression therefore equals it iff every one of its
// monomials is some a_i·b_j with i+j ∈ K_c and its term count matches —
// the same set equality Expr.Equal(SpecificationANF(...)) decides, read off
// one walk over the expression with no polynomial built.

// operandIndex maps operand input gate IDs to bit positions.
type operandIndex struct {
	m   int
	pos []int32 // gate ID -> i for a_i, m+j for b_j, -1 for anything else
}

func newOperandIndex(a, b []int) operandIndex {
	x := operandIndex{m: len(a)}
	top := -1
	for _, id := range a {
		top = max(top, id)
	}
	for _, id := range b {
		top = max(top, id)
	}
	x.pos = make([]int32, top+1)
	for i := range x.pos {
		x.pos[i] = -1
	}
	for i, id := range a {
		x.pos[id] = int32(i)
	}
	for j, id := range b {
		x.pos[id] = int32(x.m + j)
	}
	return x
}

// product decodes an ascending variable list as the bilinear product
// a_i·b_j, reporting ok = false for any other monomial.
func (x operandIndex) product(vars []anf.Var) (i, j int, ok bool) {
	if len(vars) != 2 || int(vars[1]) >= len(x.pos) {
		return 0, 0, false // vars ascend, so vars[1] bounds both
	}
	u, v := int(x.pos[vars[0]]), int(x.pos[vars[1]])
	if u > v {
		u, v = v, u
	}
	if u < 0 || u >= x.m || v < x.m {
		return 0, 0, false
	}
	return u, v - x.m, true
}

// productCount is #{(i,j) : i+j = k, 0 ≤ i,j < m}, the size of s_k.
func productCount(k, m int) int {
	if k < m {
		return k + 1
	}
	return 2*m - 1 - k
}

// goldenModel is the reduction-table specification of every output bit for
// one P(x) over fixed operand ports.
type goldenModel struct {
	operandIndex
	words int      // bitset words per column
	cols  []uint64 // column c's K_c as bits k of cols[c*words:(c+1)*words]
	terms []int    // column c's specification term count
}

// newGoldenModel builds the model for P(x) over the ports x from
// polytab.ReductionRows: for k < m, x^k is its own remainder (K_c ∋ c); for
// k ≥ m, row k−m lists the columns s_k folds into.
func newGoldenModel(p gf2poly.Poly, x operandIndex) *goldenModel {
	m := p.Deg()
	g := &goldenModel{
		operandIndex: x,
		words:        (2*m - 1 + 63) / 64,
		terms:        make([]int, m),
	}
	g.cols = make([]uint64, m*g.words)
	for c := 0; c < m; c++ {
		g.set(c, c)
	}
	for r, row := range polytab.ReductionRows(p) {
		k := m + r
		for _, c := range row.Terms() {
			g.set(c, k)
		}
	}
	return g
}

// set adds partial sum s_k to column c.
func (g *goldenModel) set(c, k int) {
	g.cols[c*g.words+(k>>6)] |= 1 << uint(k&63)
	g.terms[c] += productCount(k, g.m)
}

// folds reports whether s_k folds into column c.
func (g *goldenModel) folds(c, k int) bool {
	return g.cols[c*g.words+(k>>6)]>>uint(k&63)&1 == 1
}

// matches reports whether e is exactly the specification of output bit c.
func (g *goldenModel) matches(c int, e anf.Poly) bool {
	if e.Len() != g.terms[c] {
		return false
	}
	ok := true
	e.Terms(func(vars []anf.Var) bool {
		i, j, isProduct := g.product(vars)
		ok = isProduct && g.folds(c, i+j)
		return ok
	})
	return ok
}

// sums returns the bit-parallel value of every partial sum s_k,
// k = 0..2m−2, given each operand bit's 64 test lanes.
func (g *goldenModel) sums(aw, bw []uint64) []uint64 {
	m := g.m
	s := make([]uint64, 2*m-1)
	for i, x := range aw {
		for j, y := range bw {
			s[i+j] ^= x & y
		}
	}
	return s
}

// specMask returns the specification of output bit c evaluated on the lanes
// whose partial sums are s.
func (g *goldenModel) specMask(c int, s []uint64) uint64 {
	var acc uint64
	for k, w := range s {
		if g.folds(c, k) {
			acc ^= w
		}
	}
	return acc
}
