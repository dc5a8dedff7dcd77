package gf2poly

import (
	"math/rand"
	"testing"
)

// randomPoly returns a uniformly random polynomial of exact degree deg
// (the x^deg coefficient is forced to 1, lower coefficients are fair coins).
func randomPoly(r *rand.Rand, deg int) Poly {
	p := Monomial(deg)
	for i := 0; i < deg; i++ {
		if r.Intn(2) == 1 {
			p = p.Add(Monomial(i))
		}
	}
	return p
}

func TestRandomPolyDegreeAndDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for trial := 0; trial < 200; trial++ {
		p := randomPoly(r, 6)
		if p.Deg() != 6 {
			t.Fatalf("degree %d, want 6", p.Deg())
		}
		seen[p.String()] = true
	}
	// 64 possible degree-6 polynomials; 200 draws must hit a healthy spread.
	if len(seen) < 40 {
		t.Errorf("only %d distinct polynomials in 200 draws", len(seen))
	}
}

func TestRandomIrreducibleIsIrreducible(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for m := 1; m <= 64; m++ {
		p, err := RandomIrreducible(r, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if p.Deg() != m {
			t.Fatalf("m=%d: sampled degree %d", m, p.Deg())
		}
		if !p.Irreducible() {
			t.Fatalf("m=%d: %v is reducible", m, p)
		}
	}
	if _, err := RandomIrreducible(r, 0); err == nil {
		t.Error("degree 0 should fail")
	}
}

// TestIrreducibleAgreesWithBerlekamp cross-checks the two independent
// irreducibility algorithms (Rabin's test vs Berlekamp nullity) on random
// polynomials — the same differential principle the netlist harness uses,
// applied to the algebra layer itself.
func TestIrreducibleAgreesWithBerlekamp(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		p := randomPoly(r, 1+r.Intn(48))
		a, b := p.Irreducible(), p.IrreducibleBerlekamp()
		if a != b {
			t.Fatalf("%v: Irreducible=%v, IrreducibleBerlekamp=%v", p, a, b)
		}
	}
}

// TestIrreducibleAgreesWithFactorize: a polynomial is irreducible exactly
// when its factorization is itself with multiplicity 1; and in every case
// the factor product must rebuild the input with irreducible factors.
func TestIrreducibleAgreesWithFactorize(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		p := randomPoly(r, 2+r.Intn(24))
		facs := p.Factorize(rand.New(rand.NewSource(int64(trial))))
		prod := One()
		for _, f := range facs {
			if !f.P.Irreducible() {
				t.Fatalf("%v: factor %v is reducible", p, f.P)
			}
			for i := 0; i < f.Mult; i++ {
				prod = prod.Mul(f.P)
			}
		}
		if !prod.Equal(p) {
			t.Fatalf("%v: factor product is %v", p, prod)
		}
		wantIrr := len(facs) == 1 && facs[0].Mult == 1
		if p.Irreducible() != wantIrr {
			t.Fatalf("%v: Irreducible=%v but factorization says %v", p, p.Irreducible(), wantIrr)
		}
	}
}

// TestIrreducibleCountsExhaustive verifies the number of degree-d
// irreducible polynomials over GF(2) against the necklace-counting formula
// values (OEIS A001037) by enumerating every polynomial up to degree 10.
func TestIrreducibleCountsExhaustive(t *testing.T) {
	want := map[int]int{1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56, 10: 99}
	for d := 1; d <= 10; d++ {
		count := 0
		for low := 0; low < 1<<uint(d); low++ {
			p := Monomial(d)
			for i := 0; i < d; i++ {
				if low>>uint(i)&1 == 1 {
					p = p.Add(Monomial(i))
				}
			}
			irr := p.Irreducible()
			if irr != p.IrreducibleBerlekamp() {
				t.Fatalf("%v: algorithms disagree", p)
			}
			if irr {
				count++
			}
		}
		if count != want[d] {
			t.Errorf("degree %d: %d irreducibles, want %d", d, count, want[d])
		}
	}
}
