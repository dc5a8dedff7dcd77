package anf_test

// Differential oracle for the packed intern-table core: every test in this
// file replays an identical operation sequence against package anf and
// against internal/anf/reference (the frozen string-keyed implementation the
// packed core replaced) and requires the observable state — canonical
// rendering, term count, degree, support, per-variable occurrence counts,
// evaluation — to match exactly. ANF is canonical, so String() equality is
// full semantic equality; the remaining observables pin the occurrence
// index, which has its own bookkeeping in each core.

import (
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	ref "github.com/galoisfield/gfre/internal/anf/reference"
)

// campaignSeed fixes every sequence in the oracle campaign; a failure
// reproduces by seed + case index.
const campaignSeed = 20260808

// pair is a polynomial mirrored across both cores. All mutations go through
// its methods so the two sides can never drift by construction.
type pair struct {
	p anf.Poly
	q ref.Poly
}

func newPair() pair { return pair{p: anf.NewPoly(), q: ref.NewPoly()} }

// monoFromMask builds the same monomial in both encodings: bit i of mask set
// means variable i+1 is present.
func monoFromMask(mask uint16) (anf.Mono, ref.Mono) {
	var pv []anf.Var
	var qv []ref.Var
	for i := 0; i < 16; i++ {
		if mask&(1<<i) != 0 {
			pv = append(pv, anf.Var(i+1))
			qv = append(qv, ref.Var(i+1))
		}
	}
	return anf.NewMono(pv...), ref.NewMono(qv...)
}

func (pr *pair) toggle(mask uint16) {
	pm, qm := monoFromMask(mask)
	pr.p.Toggle(pm)
	pr.q.Toggle(qm)
}

func randPair(rng *rand.Rand, nVars, maxTerms int) pair {
	pr := newPair()
	n := rng.Intn(maxTerms + 1)
	for i := 0; i < n; i++ {
		pr.toggle(uint16(rng.Intn(1 << nVars)))
	}
	return pr
}

func (pr *pair) add(o pair) {
	pr.p.AddInPlace(o.p)
	pr.q.AddInPlace(o.q)
}

func (pr *pair) mul(o pair) pair {
	return pair{p: pr.p.Mul(o.p), q: pr.q.Mul(o.q)}
}

func (pr *pair) substitute(v int, e pair) {
	pr.p.Substitute(anf.Var(v), e.p)
	pr.q.Substitute(ref.Var(v), e.q)
}

// substituteTerms eliminates v through the term-list entry on the packed
// side and through Substitute on the reference side, whose expression is
// the XOR of the same terms (duplicate masks cancel in pairs there too).
func (pr *pair) substituteTerms(v int, e *anf.Terms) {
	var monos []ref.Mono
	for _, m := range e.Masks {
		var vs []ref.Var
		for i, w := range e.Vars {
			if m&(1<<uint(i)) != 0 {
				vs = append(vs, ref.Var(w))
			}
		}
		monos = append(monos, ref.NewMono(vs...))
	}
	pr.p.SubstituteTerms(anf.Var(v), e)
	pr.q.Substitute(ref.Var(v), ref.FromMonos(monos...))
}

// randTerms draws a gate-model-shaped expression over variables 1..maxVar:
// up to four ascending variables and up to five masks over them, repeats
// included so that duplicate terms cancel.
func randTerms(rng *rand.Rand, maxVar int) *anf.Terms {
	e := &anf.Terms{}
	for v := 1; v <= maxVar && len(e.Vars) < 4; v++ {
		if rng.Intn(3) == 0 {
			e.Vars = append(e.Vars, anf.Var(v))
		}
	}
	for i := rng.Intn(6); i > 0; i-- {
		m := uint32(rng.Intn(1 << len(e.Vars)))
		e.Masks = append(e.Masks, m)
		if rng.Intn(4) == 0 {
			e.Masks = append(e.Masks, m)
		}
	}
	return e
}

func (pr *pair) clone() pair {
	return pair{p: pr.p.Clone(), q: pr.q.Clone()}
}

// mustMatch asserts every observable agrees between the two cores.
func mustMatch(t *testing.T, ctx string, pr pair) {
	t.Helper()
	if got, want := pr.p.String(), pr.q.String(); got != want {
		t.Fatalf("%s: packed=%q reference=%q", ctx, got, want)
	}
	if got, want := pr.p.Len(), pr.q.Len(); got != want {
		t.Fatalf("%s: Len packed=%d reference=%d", ctx, got, want)
	}
	if got, want := pr.p.IsZero(), pr.q.IsZero(); got != want {
		t.Fatalf("%s: IsZero packed=%v reference=%v", ctx, got, want)
	}
	if got, want := pr.p.IsOne(), pr.q.IsOne(); got != want {
		t.Fatalf("%s: IsOne packed=%v reference=%v", ctx, got, want)
	}
	if got, want := pr.p.MaxDeg(), pr.q.MaxDeg(); got != want {
		t.Fatalf("%s: MaxDeg packed=%d reference=%d", ctx, got, want)
	}
	ps, qs := pr.p.SupportVars(), pr.q.SupportVars()
	if len(ps) != len(qs) {
		t.Fatalf("%s: SupportVars packed=%v reference=%v", ctx, ps, qs)
	}
	for i := range ps {
		if uint32(ps[i]) != uint32(qs[i]) {
			t.Fatalf("%s: SupportVars packed=%v reference=%v", ctx, ps, qs)
		}
	}
	for v := 1; v <= 16; v++ {
		if got, want := pr.p.VarOccurrences(anf.Var(v)), pr.q.VarOccurrences(ref.Var(v)); got != want {
			t.Fatalf("%s: VarOccurrences(v%d) packed=%d reference=%d", ctx, v, got, want)
		}
		if got, want := pr.p.ContainsVar(anf.Var(v)), pr.q.ContainsVar(ref.Var(v)); got != want {
			t.Fatalf("%s: ContainsVar(v%d) packed=%v reference=%v", ctx, v, got, want)
		}
	}
	// Monos agree monomial by monomial (both canonical orders).
	pm, qm := pr.p.Monos(), pr.q.Monos()
	for i := range pm {
		if string(pm[i]) != string(qm[i]) {
			t.Fatalf("%s: Monos[%d] packed=%v reference=%v", ctx, i, pm[i], qm[i])
		}
	}
}

// mustEvalMatch cross-checks evaluation under a random assignment.
func mustEvalMatch(t *testing.T, ctx string, pr pair, mask uint32) {
	t.Helper()
	pa := func(v anf.Var) bool { return mask&(1<<(uint32(v)&31)) != 0 }
	qa := func(v ref.Var) bool { return mask&(1<<(uint32(v)&31)) != 0 }
	if got, want := pr.p.Eval(pa), pr.q.Eval(qa); got != want {
		t.Fatalf("%s: Eval(mask=%x) packed=%v reference=%v", ctx, mask, got, want)
	}
}

// TestDifferentialCampaign is the headline oracle run: thousands of seeded
// random operation sequences — toggles, XOR-merges, products, substitutions,
// clones — with a full observable comparison after every step. The case
// count is what the CI differential campaign and the acceptance criteria
// reference; keep it at or above 5000.
func TestDifferentialCampaign(t *testing.T) {
	const cases = 5000
	rng := rand.New(rand.NewSource(campaignSeed))
	for c := 0; c < cases; c++ {
		nVars := 2 + rng.Intn(7)
		pr := randPair(rng, nVars, 12)
		steps := 1 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0:
				pr.toggle(uint16(rng.Intn(1 << nVars)))
			case 1:
				pr.add(randPair(rng, nVars, 6))
			case 2:
				if pr.p.Len() <= 24 {
					pr = pr.mul(randPair(rng, nVars, 3))
				}
			case 3:
				v := 1 + rng.Intn(nVars)
				e := randPair(rng, nVars, 3)
				if got, want := e.p.ContainsVar(anf.Var(v)), e.q.ContainsVar(ref.Var(v)); got != want {
					t.Fatalf("case %d: ContainsVar disagreement before substitution", c)
				} else if !got {
					pr.substitute(v, e)
				}
			case 4:
				cl := pr.clone()
				cl.toggle(uint16(rng.Intn(1 << nVars)))
				// Mutating the clone must leave the original untouched in
				// both cores (checked below by mustMatch on pr).
			}
		}
		mustMatch(t, "campaign", pr)
		mustEvalMatch(t, "campaign", pr, rng.Uint32())
	}
}

func TestDiffAddCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(campaignSeed + 1))
	for c := 0; c < 500; c++ {
		a, b, cc := randPair(rng, 8, 10), randPair(rng, 8, 10), randPair(rng, 8, 10)
		ab := a.clone()
		ab.add(b)
		ba := b.clone()
		ba.add(a)
		if !ab.p.Equal(ba.p) || !ab.q.Equal(ba.q) {
			t.Fatalf("case %d: a+b != b+a", c)
		}
		mustMatch(t, "add-comm", ab)
		abc := ab.clone()
		abc.add(cc)
		bc := b.clone()
		bc.add(cc)
		abc2 := a.clone()
		abc2.add(bc)
		if !abc.p.Equal(abc2.p) || !abc.q.Equal(abc2.q) {
			t.Fatalf("case %d: (a+b)+c != a+(b+c)", c)
		}
		mustMatch(t, "add-assoc", abc)
	}
}

func TestDiffMulCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(campaignSeed + 2))
	for c := 0; c < 300; c++ {
		a, b, cc := randPair(rng, 6, 6), randPair(rng, 6, 6), randPair(rng, 6, 4)
		ab, ba := a.mul(b), b.mul(a)
		if !ab.p.Equal(ba.p) || !ab.q.Equal(ba.q) {
			t.Fatalf("case %d: a·b != b·a", c)
		}
		mustMatch(t, "mul-comm", ab)
		l, r := ab.mul(cc), a.mul(b.mul(cc))
		if !l.p.Equal(r.p) || !l.q.Equal(r.q) {
			t.Fatalf("case %d: (a·b)·c != a·(b·c)", c)
		}
		mustMatch(t, "mul-assoc", l)
	}
}

func TestDiffMulIdempotent(t *testing.T) {
	// Over GF(2) with x² = x, squaring is the identity: p·p = p (cross
	// terms appear in pairs and cancel mod 2).
	rng := rand.New(rand.NewSource(campaignSeed + 3))
	for c := 0; c < 500; c++ {
		a := randPair(rng, 8, 10)
		sq := a.mul(a)
		if !sq.p.Equal(a.p) || !sq.q.Equal(a.q) {
			t.Fatalf("case %d: p·p != p\np=%v\np·p=%v", c, a.p, sq.p)
		}
		mustMatch(t, "mul-idem", sq)
	}
}

func TestDiffDoubleToggleCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(campaignSeed + 4))
	for c := 0; c < 500; c++ {
		a := randPair(rng, 8, 10)
		before := a.p.String()
		mask := uint16(rng.Intn(1 << 8))
		a.toggle(mask)
		a.toggle(mask)
		if a.p.String() != before {
			t.Fatalf("case %d: double toggle changed the polynomial", c)
		}
		mustMatch(t, "double-toggle", a)
	}
}

func TestDiffCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(campaignSeed + 5))
	for c := 0; c < 500; c++ {
		a := randPair(rng, 8, 10)
		snapshot := a.p.String()
		cl := a.clone()
		// Mutate the clone heavily in both cores.
		cl.add(randPair(rng, 8, 8))
		cl.toggle(uint16(rng.Intn(1 << 8)))
		v := 1 + rng.Intn(8)
		e := randPair(rng, 8, 3)
		if !e.p.ContainsVar(anf.Var(v)) {
			cl.substitute(v, e)
		}
		if a.p.String() != snapshot {
			t.Fatalf("case %d: mutating a clone changed the packed original", c)
		}
		mustMatch(t, "clone-original", a)
		mustMatch(t, "clone-mutant", cl)
	}
}

func TestDiffSubstituteChains(t *testing.T) {
	// Long substitution chains are the rewriting engine's access pattern:
	// each variable eliminated exactly once, products meeting existing terms
	// mod 2. This drives the packed core's occurrence lists, product memo
	// and arena through realistic churn.
	rng := rand.New(rand.NewSource(campaignSeed + 6))
	for c := 0; c < 300; c++ {
		pr := randPair(rng, 10, 16)
		for v := 10; v >= 3; v-- {
			e := randPair(rng, v-1, 4) // over vars 1..v-1 only: acyclic
			pr.substitute(v, e)
			mustMatch(t, "subst-chain", pr)
		}
		mustEvalMatch(t, "subst-chain", pr, rng.Uint32())
	}
	// The same chains with gate-model-shaped expressions through the
	// rewriting loop's term-list entry, next to the Poly entry on the same
	// terms: both must track the reference step by step.
	for c := 0; c < 300; c++ {
		pr := randPair(rng, 10, 16)
		viaPoly := pair{p: pr.p.Clone(), q: pr.q.Clone()}
		for v := 10; v >= 3; v-- {
			e := randTerms(rng, v-1) // over vars 1..v-1 only: acyclic
			pr.substituteTerms(v, e)
			mustMatch(t, "subst-terms-chain", pr)
			viaPoly.p.Substitute(anf.Var(v), e.Poly())
			mustMatch(t, "subst-terms-poly", pair{p: viaPoly.p, q: pr.q})
		}
		mustEvalMatch(t, "subst-terms-chain", pr, rng.Uint32())
	}
}

func TestDiffContainsAndMonosAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(campaignSeed + 7))
	for c := 0; c < 500; c++ {
		a := randPair(rng, 8, 12)
		for i := 0; i < 16; i++ {
			pm, qm := monoFromMask(uint16(rng.Intn(1 << 8)))
			if got, want := a.p.Contains(pm), a.q.Contains(qm); got != want {
				t.Fatalf("case %d: Contains(%v) packed=%v reference=%v", c, pm, got, want)
			}
		}
	}
}
