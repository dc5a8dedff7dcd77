package gf2poly

import (
	"fmt"
	"math/rand"
)

// RandomIrreducible samples a uniformly random irreducible polynomial of
// degree m by rejection: the density of irreducibles among degree-m
// polynomials with constant term 1 is about 2/m, so the expected number of
// trials is m/2. Candidates keep the constant term 1 (any irreducible of
// degree >= 1 other than x has one), which doubles the hit rate.
//
// It is the planted-polynomial sampler of the differential-testing harness:
// unlike polytab.Default it covers dense polynomials, not just the trinomial
// and pentanomial corners the standards prefer.
func RandomIrreducible(r *rand.Rand, m int) (Poly, error) {
	if m < 1 {
		return Poly{}, fmt.Errorf("gf2poly: no irreducible of degree %d", m)
	}
	if m == 1 {
		// x and x+1 are the only candidates; pick fairly.
		if r.Intn(2) == 1 {
			return X(), nil
		}
		return X().Add(One()), nil
	}
	// With success probability ~2/m per trial, 64*m trials fail with
	// probability well under 2^-100; the bound only guards against a broken
	// Irreducible predicate turning this into an infinite loop.
	for trial := 0; trial < 64*m; trial++ {
		p := Monomial(m).Add(One())
		for i := 1; i < m; i++ {
			if r.Intn(2) == 1 {
				p = p.Add(Monomial(i))
			}
		}
		if p.Irreducible() {
			return p, nil
		}
	}
	return Poly{}, fmt.Errorf("gf2poly: no irreducible of degree %d found after %d trials", m, 64*m)
}
