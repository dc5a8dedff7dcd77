package extract_test

import (
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// TestGoldenMatcherAgreesWithSpecificationANF is the differential net under
// the reduction-table golden model: for every output bit of the diffcheck
// corpus, the matcher must give exactly the verdict of the canonical
// comparison Expr.Equal(SpecificationANF(...)). Each case is checked clean,
// with planted trojans (FlipXors), under a term budget that fails some cones
// (KeepPartial), against every wrong candidate P(x) consensus could try
// (one coefficient flipped, still irreducible), and on perturbed
// expressions: one term dropped, a product of the wrong partial sum, a
// product within one operand, a linear term, and a monomial over an
// internal gate. The model's bit-parallel specification, which trojan
// localization evaluates, must equal the specification ANF's value on
// random lanes.
func TestGoldenMatcherAgreesWithSpecificationANF(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 10
	}
	cfg := diffcheck.Config{Seed: 1, MinM: 3, MaxM: 10}
	checked, matched := 0, 0
	for idx := 0; idx < cases; idx++ {
		c := diffcheck.NewCase(idx, cfg)
		n, err := c.Generate()
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		a, b, _, err := diffcheck.CanonicalBinding(c.M).Resolve(n)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		candidates := []gf2poly.Poly{c.P}
		for i := 1; i < c.M; i++ {
			if q := c.P.Add(gf2poly.Monomial(i)); q.Irreducible() {
				candidates = append(candidates, q)
			}
		}
		check := func(variant string, n *netlist.Netlist, opts rewrite.Options) {
			rw, err := rewrite.Outputs(n, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.Label(), variant, err)
			}
			for bit, br := range rw.Bits {
				exprs := []anf.Poly{br.Expr}
				if !br.Status.Failed() {
					exprs = append(exprs, perturbed(br.Expr, a, b, n.NumGates()-1)...)
				}
				for _, p := range candidates {
					for _, e := range exprs {
						want := e.Equal(extract.SpecificationANF(p, a, b, bit))
						if got := extract.GoldenMatches(p, a, b, bit, e); got != want {
							t.Fatalf("%s %s P=%v bit %d: matcher says %v, Expr.Equal says %v (expr %v)",
								c.Label(), variant, p, bit, got, want, e)
						}
						checked++
						if want {
							matched++
						}
					}
				}
			}
		}
		r := rand.New(rand.NewSource(c.Seed))
		aw, bw := make([]uint64, c.M), make([]uint64, c.M)
		lane := map[anf.Var]uint64{}
		for i := range aw {
			aw[i], bw[i] = r.Uint64(), r.Uint64()
			lane[anf.Var(a[i])], lane[anf.Var(b[i])] = aw[i], bw[i]
		}
		for _, p := range candidates {
			for bit := 0; bit < c.M; bit++ {
				var want uint64
				for _, mono := range extract.SpecificationANF(p, a, b, bit).Monos() {
					w := ^uint64(0)
					for _, v := range mono.Vars() {
						w &= lane[v]
					}
					want ^= w
				}
				if got := extract.GoldenSpecLanes(p, a, b, bit, aw, bw); got != want {
					t.Fatalf("%s P=%v bit %d: spec lanes %#x, want %#x", c.Label(), p, bit, got, want)
				}
			}
		}
		check("clean", n, rewrite.Options{Threads: 1})
		if nx := diffcheck.CountXor(n); nx >= 2 {
			bad, _, err := diffcheck.FlipXors(n, []int{0, nx / 2})
			if err != nil {
				t.Fatal(err)
			}
			check("trojan", bad, rewrite.Options{Threads: 1})
		}
		check("budget", n, rewrite.Options{Threads: 1, BudgetTerms: c.M, KeepPartial: true, MaxFailures: c.M})
	}
	// Ports with gaps between their gate IDs, so a non-operand signal sits
	// inside the operand index's range.
	a, b := []int{0, 2, 4}, []int{6, 8, 10}
	p := gf2poly.MustParse("x^3+x+1")
	for bit := 0; bit < 3; bit++ {
		spec := extract.SpecificationANF(p, a, b, bit)
		for _, e := range perturbed(spec, a, b, 5) {
			for _, foreign := range []anf.Mono{anf.NewMono(1, 8), anf.NewMono(2, 7), anf.NewMono(5, 10)} {
				q := e.Clone()
				q.Toggle(spec.Monos()[0])
				q.Toggle(foreign)
				for _, x := range []anf.Poly{e, q} {
					want := x.Equal(spec)
					if got := extract.GoldenMatches(p, a, b, bit, x); got != want {
						t.Fatalf("gapped ports bit %d: matcher says %v, Expr.Equal says %v (expr %v)", bit, got, want, x)
					}
					checked++
				}
			}
		}
	}
	if matched == 0 || matched == checked {
		t.Fatalf("degenerate corpus: %d of %d verdicts match", matched, checked)
	}
	t.Logf("%d verdicts agree (%d matches)", checked, matched)
}

// perturbed returns near-miss variants of a completed expression: one term
// dropped, and each foreign monomial added both on top and in place of the
// dropped term (so the term count alone cannot reject it).
func perturbed(e anf.Poly, a, b []int, internal int) []anf.Poly {
	if e.Len() == 0 {
		return nil
	}
	drop := e.Clone()
	drop.Toggle(e.Monos()[e.Len()/2])
	out := []anf.Poly{drop}
	m := len(a)
	for _, mono := range []anf.Mono{
		anf.NewMono(anf.Var(a[m-1]), anf.Var(b[m-1])), // s_{2m-2}
		anf.NewMono(anf.Var(a[0]), anf.Var(b[0])),     // s_0
		anf.NewMono(anf.Var(a[0]), anf.Var(a[m-1])),
		anf.NewMono(anf.Var(b[0]), anf.Var(b[m-1])),
		anf.NewMono(anf.Var(b[0]), anf.Var(b[1])),
		anf.NewMono(anf.Var(a[0])),
		anf.NewMono(anf.Var(a[0]), anf.Var(internal)),
	} {
		for _, base := range []anf.Poly{e, drop} {
			q := base.Clone()
			q.Toggle(mono)
			out = append(out, q)
		}
	}
	return out
}

// TestVerifyAllocsIndependentOfTerms pins the golden model's cost shape:
// verifying an m=64 extraction builds one reduction table (O(m)
// allocations) and walks each expression in place, so its allocation count
// does not grow with the thousands of terms it compares. The
// per-specification build it replaced allocated per term.
func TestVerifyAllocsIndependentOfTerms(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const m = 64
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extract.IrreduciblePolynomial(n, extract.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	terms := 0
	for _, br := range ext.Rewrite.Bits {
		terms += br.Expr.Len()
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := extract.Verify(n, ext); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("m=%d: %.0f allocations to verify %d terms", m, allocs, terms)
	if limit := 4.0 * m; allocs > limit {
		t.Errorf("verify allocates %.0f objects for m=%d (%d terms); want ≤ %.0f, O(m)", allocs, m, terms, limit)
	}
}
