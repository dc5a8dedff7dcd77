package extract

import (
	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gf2poly"
)

// GoldenMatches exposes the reduction-table matcher to the external tests:
// whether e is exactly the specification of output bit c for p over the
// operand ports a, b.
func GoldenMatches(p gf2poly.Poly, a, b []int, c int, e anf.Poly) bool {
	return newGoldenModel(p, newOperandIndex(a, b)).matches(c, e)
}

// GoldenSpecLanes exposes the golden model's bit-parallel specification:
// output bit c's value on the 64 lanes whose operand bits carry aw, bw.
func GoldenSpecLanes(p gf2poly.Poly, a, b []int, c int, aw, bw []uint64) uint64 {
	g := newGoldenModel(p, newOperandIndex(a, b))
	return g.specMask(c, g.sums(aw, bw))
}
