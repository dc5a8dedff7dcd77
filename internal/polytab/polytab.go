// Package polytab catalogs irreducible polynomials over GF(2) and provides
// search and cost utilities.
//
// It carries the two polynomial families the paper evaluates:
//
//   - the NIST-recommended polynomials used for Tables I–III (FIPS 186 /
//     "Recommended elliptic curves for federal government use", 1999), and
//   - Scott's architecture-optimal GF(2^233) polynomials used for Table IV
//     and Figure 4 (optimal for Intel Pentium, ARM and MSP430).
//
// It also implements the lowest-weight trinomial/pentanomial search the
// paper's Section II-D discusses (a pentanomial is chosen only when no
// irreducible trinomial exists) and the reduction XOR-cost model used to
// compare polynomial choices in Figure 1.
package polytab

import (
	"fmt"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

// NIST maps a field size m to the NIST-recommended irreducible polynomial
// for GF(2^m), exactly the set used in the paper's Tables I and II.
var NIST = map[int]gf2poly.Poly{
	64:  gf2poly.MustParse("x^64+x^21+x^19+x^4+1"),
	96:  gf2poly.MustParse("x^96+x^44+x^7+x^2+1"),
	163: gf2poly.MustParse("x^163+x^80+x^47+x^9+1"),
	233: gf2poly.MustParse("x^233+x^74+1"),
	283: gf2poly.MustParse("x^283+x^12+x^7+x^5+1"),
	409: gf2poly.MustParse("x^409+x^87+1"),
	571: gf2poly.MustParse("x^571+x^10+x^5+x^2+1"),
}

// ArchPoly is an irreducible polynomial recommended as optimal for a
// particular microprocessor architecture (Table IV; from M. Scott, "Optimal
// irreducible polynomials for GF(2^m) arithmetic", 2007).
type ArchPoly struct {
	Arch string
	P    gf2poly.Poly
}

// Arch233 lists the GF(2^233) polynomials of Table IV in the paper's row
// order: Intel-Pentium, ARM, MSP430 and the NIST recommendation.
var Arch233 = []ArchPoly{
	{"Intel-Pentium", gf2poly.MustParse("x^233+x^201+x^105+x^9+1")},
	{"ARM", gf2poly.MustParse("x^233+x^159+1")},
	{"MSP430", gf2poly.MustParse("x^233+x^185+x^121+x^105+1")},
	{"NIST-recommended", gf2poly.MustParse("x^233+x^74+1")},
}

// Trinomial searches for an irreducible trinomial x^m + x^a + 1 with the
// smallest middle exponent a in [1, m-1]. It returns false when none exists
// (e.g. whenever m ≡ 0 mod 8).
func Trinomial(m int) (gf2poly.Poly, bool) {
	if m < 2 {
		return gf2poly.Poly{}, false
	}
	for a := 1; a < m; a++ {
		p := gf2poly.FromTerms(m, a, 0)
		if p.Irreducible() {
			return p, true
		}
	}
	return gf2poly.Poly{}, false
}

// Pentanomial searches for an irreducible pentanomial
// x^m + x^a + x^b + x^c + 1 with m > a > b > c >= 1, scanning exponents in
// lexicographically increasing (a, b, c) order so the result is
// deterministic and low-weight-biased. It returns false when none exists in
// the searched range (no such m is known for m >= 4).
func Pentanomial(m int) (gf2poly.Poly, bool) {
	if m < 4 {
		return gf2poly.Poly{}, false
	}
	for a := 3; a < m; a++ {
		for b := 2; b < a; b++ {
			for c := 1; c < b; c++ {
				p := gf2poly.FromTerms(m, a, b, c, 0)
				if p.Irreducible() {
					return p, true
				}
			}
		}
	}
	return gf2poly.Poly{}, false
}

// Default returns an irreducible polynomial of degree m following the
// policy the paper cites from NIST: use the registered NIST polynomial if m
// is a NIST size, otherwise prefer an irreducible trinomial and fall back to
// a pentanomial only when no trinomial exists.
func Default(m int) (gf2poly.Poly, error) {
	if p, ok := NIST[m]; ok {
		return p, nil
	}
	if p, ok := Trinomial(m); ok {
		return p, nil
	}
	if p, ok := Pentanomial(m); ok {
		return p, nil
	}
	return gf2poly.Poly{}, fmt.Errorf("polytab: no irreducible trinomial or pentanomial of degree %d found", m)
}

// ReductionRows returns, for k = m..2m-2, the bit vector x^k mod P(x) as a
// polynomial of degree < m. Row k (indexed k-m) tells which output columns
// the out-field partial-product sum s_k folds into — the rows of the
// reduction tables in Figure 1 of the paper.
func ReductionRows(p gf2poly.Poly) []gf2poly.Poly {
	m := p.Deg()
	if m < 1 {
		panic("polytab: reduction rows need deg >= 1")
	}
	rows := make([]gf2poly.Poly, m-1)
	// x^m mod P = P - x^m = P'(x); subsequent rows multiply by x mod P.
	r := p.Add(gf2poly.Monomial(m))
	for k := 0; k < m-1; k++ {
		rows[k] = r
		r = r.Shl(1)
		if r.Deg() == m {
			r = r.Add(p)
		}
	}
	return rows
}

// ReductionXORCount counts the XOR operations required to fold the
// out-field partial-product sums s_m..s_{2m-2} into the m output columns:
// the number of entries in each column of the Figure 1 table minus one,
// summed over columns. For Figure 1 this yields 9 for P1 = x^4+x^3+1 and 6
// for P2 = x^4+x+1.
func ReductionXORCount(p gf2poly.Poly) int {
	m := p.Deg()
	colEntries := make([]int, m) // entries per column, counting s_0..s_{m-1}.
	for i := range colEntries {
		colEntries[i] = 1
	}
	for _, row := range ReductionRows(p) {
		for i := 0; i < m; i++ {
			if row.Coeff(i) == 1 {
				colEntries[i]++
			}
		}
	}
	xors := 0
	for _, n := range colEntries {
		xors += n - 1
	}
	return xors
}

// CountIrreducible returns the number of monic irreducible polynomials of
// degree m over GF(2), by the necklace-counting formula
// (1/m)·Σ_{d|m} μ(d)·2^(m/d). Supported for m in [1, 62] (the count must
// fit in uint64). Used as an independent cross-check of the searching and
// factoring code.
func CountIrreducible(m int) (uint64, error) {
	if m < 1 || m > 62 {
		return 0, fmt.Errorf("polytab: CountIrreducible supports 1 <= m <= 62, have %d", m)
	}
	var sum int64
	for d := 1; d <= m; d++ {
		if m%d != 0 {
			continue
		}
		mu := moebius(d)
		if mu == 0 {
			continue
		}
		sum += int64(mu) * int64(uint64(1)<<uint(m/d))
	}
	return uint64(sum) / uint64(m), nil
}

// moebius returns the Möbius function μ(n) for n >= 1.
func moebius(n int) int {
	if n == 1 {
		return 1
	}
	mu := 1
	for p := 2; p*p <= n; p++ {
		if n%p != 0 {
			continue
		}
		n /= p
		if n%p == 0 {
			return 0 // squared prime factor
		}
		mu = -mu
	}
	if n > 1 {
		mu = -mu
	}
	return mu
}
