package anf

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMonoSortsAndDedupes(t *testing.T) {
	if NewMono(3, 1, 2) != NewMono(1, 2, 3) {
		t.Error("monomials should be order-insensitive")
	}
	if NewMono(5, 5) != NewMono(5) {
		t.Error("x² should collapse to x (idempotence)")
	}
	if NewMono() != MonoOne {
		t.Error("empty monomial should be the constant 1")
	}
	if got := NewMono(7, 2, 7, 2).Vars(); !reflect.DeepEqual(got, []Var{2, 7}) {
		t.Errorf("Vars = %v", got)
	}
}

func TestMonoContainsWithout(t *testing.T) {
	m := NewMono(1, 300, 70000)
	for _, v := range []Var{1, 300, 70000} {
		if !m.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range []Var{0, 2, 299, 301, 1 << 20} {
		if m.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	if got := m.Without(300); got != NewMono(1, 70000) {
		t.Errorf("Without(300) = %v", got)
	}
	if got := m.Without(999); got != m {
		t.Errorf("Without(absent) changed the monomial: %v", got)
	}
	if got := NewMono(5).Without(5); got != MonoOne {
		t.Errorf("Without last var = %v, want 1", got)
	}
}

func TestMulMono(t *testing.T) {
	a, b := NewMono(1, 3), NewMono(2, 3)
	if got := MulMono(a, b); got != NewMono(1, 2, 3) {
		t.Errorf("v1v3 · v2v3 = %v", got)
	}
	if got := MulMono(MonoOne, a); got != a {
		t.Errorf("1 · m = %v", got)
	}
	if got := MulMono(a, MonoOne); got != a {
		t.Errorf("m · 1 = %v", got)
	}
}

func TestMonoDegAndString(t *testing.T) {
	if MonoOne.Deg() != 0 || MonoOne.String() != "1" {
		t.Errorf("constant monomial: deg %d, %q", MonoOne.Deg(), MonoOne.String())
	}
	m := NewMono(2, 9)
	if m.Deg() != 2 || m.String() != "v2·v9" {
		t.Errorf("deg %d, %q", m.Deg(), m.String())
	}
}

func TestToggleCancels(t *testing.T) {
	p := NewPoly()
	m := NewMono(1, 2)
	p.Toggle(m)
	if !p.Contains(m) || p.Len() != 1 {
		t.Fatal("toggle insert failed")
	}
	p.Toggle(m)
	if !p.IsZero() {
		t.Fatal("toggle should cancel mod 2")
	}
}

func TestAddXORSemantics(t *testing.T) {
	p := FromMonos(NewMono(1), NewMono(2))
	q := FromMonos(NewMono(2), NewMono(3))
	r := p.Add(q)
	want := FromMonos(NewMono(1), NewMono(3))
	if !r.Equal(want) {
		t.Errorf("(v1+v2)+(v2+v3) = %v", r)
	}
	// Add must not mutate operands.
	if p.Len() != 2 || q.Len() != 2 {
		t.Error("Add mutated an operand")
	}
}

func TestMulExpandsWithIdempotence(t *testing.T) {
	// (a+b)(a+b) = a² + 2ab + b² = a + b over GF(2) with idempotence.
	p := FromMonos(NewMono(1), NewMono(2))
	if got := p.Mul(p); !got.Equal(p) {
		t.Errorf("(a+b)² = %v, want a+b", got)
	}
	// (a+1)(b+1) = ab + a + b + 1.
	q := FromMonos(NewMono(1), MonoOne).Mul(FromMonos(NewMono(2), MonoOne))
	want := FromMonos(NewMono(1, 2), NewMono(1), NewMono(2), MonoOne)
	if !q.Equal(want) {
		t.Errorf("(a+1)(b+1) = %v", q)
	}
}

func TestEvalGateModels(t *testing.T) {
	// Eq. (1) of the paper: check each model against Boolean semantics.
	a, b := Var(1), Var(2)
	and := FromMonos(NewMono(a, b))
	or := FromMonos(NewMono(a), NewMono(b), NewMono(a, b))
	xor := FromMonos(NewMono(a), NewMono(b))
	not := FromMonos(MonoOne, NewMono(a))
	for _, av := range []bool{false, true} {
		for _, bv := range []bool{false, true} {
			assign := func(v Var) bool {
				if v == a {
					return av
				}
				return bv
			}
			if and.Eval(assign) != (av && bv) {
				t.Errorf("AND model wrong at %v,%v", av, bv)
			}
			if or.Eval(assign) != (av || bv) {
				t.Errorf("OR model wrong at %v,%v", av, bv)
			}
			if xor.Eval(assign) != (av != bv) {
				t.Errorf("XOR model wrong at %v,%v", av, bv)
			}
			if not.Eval(assign) != !av {
				t.Errorf("NOT model wrong at %v", av)
			}
		}
	}
}

func TestSubstituteBasic(t *testing.T) {
	// p = v3·v1 + v3 + v2; substitute v3 = v1+v2:
	// (v1+v2)v1 + (v1+v2) + v2 = v1 + v1v2 + v1 + v2 + v2 = v1v2.
	p := FromMonos(NewMono(3, 1), NewMono(3), NewMono(2))
	p.Substitute(3, FromMonos(NewMono(1), NewMono(2)))
	want := FromMonos(NewMono(1, 2))
	if !p.Equal(want) {
		t.Errorf("substitution result = %v, want %v", p, want)
	}
}

func TestSubstituteAbsentVarNoop(t *testing.T) {
	p := FromMonos(NewMono(1), MonoOne)
	q := p.Clone()
	p.Substitute(9, FromMonos(NewMono(2)))
	if !p.Equal(q) {
		t.Error("substituting an absent variable changed the polynomial")
	}
}

func TestSubstituteConstant(t *testing.T) {
	// p = v1·v2 + v2; v2 := 1 gives v1 + 1.
	p := FromMonos(NewMono(1, 2), NewMono(2))
	p.Substitute(2, Constant(true))
	if want := FromMonos(NewMono(1), MonoOne); !p.Equal(want) {
		t.Errorf("v2:=1 gives %v", p)
	}
	// v1 := 0 gives 1.
	p.Substitute(1, Constant(false))
	if !p.IsOne() {
		t.Errorf("v1:=0 gives %v", p)
	}
}

func TestSubstitutePanicsOnSelfReference(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-referential substitution should panic")
		}
	}()
	p := FromMonos(NewMono(1))
	p.Substitute(1, FromMonos(NewMono(1), NewMono(2)))
}

func TestSubstituteTermsPanics(t *testing.T) {
	for name, e := range map[string]*Terms{
		"self-reference":  {Vars: []Var{1, 2}, Masks: []uint32{0b01, 0b10}},
		"descending vars": {Vars: []Var{3, 2}, Masks: []uint32{0b11}},
		"repeated var":    {Vars: []Var{2, 2}, Masks: []uint32{0b11}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SubstituteTerms should panic", name)
				}
			}()
			FromMonos(NewMono(1)).SubstituteTerms(1, e)
		}()
	}
}

func TestTermsSetFuncAndPoly(t *testing.T) {
	// Majority of v2, v5, v7: v2·v5 + v2·v7 + v5·v7, masks over Vars.
	var e Terms
	e.SetFunc([]Var{2, 5, 7}, func(row int) bool {
		return row&1+row>>1&1+row>>2&1 >= 2
	})
	if got, want := e.Masks, []uint32{0b011, 0b101, 0b110}; !slices.Equal(got, want) {
		t.Errorf("majority masks = %b, want %b", got, want)
	}
	want := FromMonos(NewMono(2, 5), NewMono(2, 7), NewMono(5, 7))
	if p := e.Poly(); !p.Equal(want) {
		t.Errorf("majority = %v, want %v", p, want)
	}
	// Refilling the buffer replaces the previous model entirely.
	e.SetFunc([]Var{4}, func(row int) bool { return row == 0 })
	if p := e.Poly(); !p.Equal(FromMonos(MonoOne, NewMono(4))) || e.Len() != 2 {
		t.Errorf("NOT v4 = %v (%d terms), want 1+v4", p, e.Len())
	}
}

func TestPaperExample1Iteration(t *testing.T) {
	// Figure 3 of the paper, z1 thread, 4th iteration: substituting
	// p0 = 1 + a0b1 into (p0+p1+s2)x + x produces the monomial 2x which is
	// eliminated mod 2. We model the coefficient-of-x expression directly:
	// F = p0 + p1 + s2 + 1 with p0 := a0·b1 + 1 gives a0b1 + p1 + s2
	// (the two constants cancel — the "2x" elimination).
	const (
		a0, b1, p0, p1, s2 = 1, 2, 3, 4, 5
	)
	f := FromMonos(NewMono(p0), NewMono(p1), NewMono(s2), MonoOne)
	f.Substitute(p0, FromMonos(NewMono(a0, b1), MonoOne))
	want := FromMonos(NewMono(a0, b1), NewMono(p1), NewMono(s2))
	if !f.Equal(want) {
		t.Errorf("after substitution: %v, want %v", f, want)
	}
}

func TestSupportVarsAndContainsVar(t *testing.T) {
	p := FromMonos(NewMono(5, 2), NewMono(9), MonoOne)
	if got := p.SupportVars(); !reflect.DeepEqual(got, []Var{2, 5, 9}) {
		t.Errorf("SupportVars = %v", got)
	}
	if !p.ContainsVar(5) || p.ContainsVar(4) {
		t.Error("ContainsVar wrong")
	}
}

func TestVarOccurrences(t *testing.T) {
	p := FromMonos(NewMono(1, 2), NewMono(1, 3), NewMono(4), MonoOne)
	if got := p.VarOccurrences(1); got != 2 {
		t.Errorf("VarOccurrences(1) = %d, want 2", got)
	}
	if got := p.VarOccurrences(4); got != 1 {
		t.Errorf("VarOccurrences(4) = %d, want 1", got)
	}
	if got := p.VarOccurrences(7); got != 0 {
		t.Errorf("VarOccurrences(7) = %d, want 0", got)
	}
	// Toggling a monomial out must drop its contribution from the index.
	p.Toggle(NewMono(1, 2))
	if got := p.VarOccurrences(1); got != 1 {
		t.Errorf("after toggle: VarOccurrences(1) = %d, want 1", got)
	}
}

func TestMonosDeterministicOrder(t *testing.T) {
	p := FromMonos(NewMono(2), NewMono(1), NewMono(1, 2), MonoOne)
	var prev []Mono
	for i := 0; i < 10; i++ {
		cur := p.Monos()
		if i > 0 && !reflect.DeepEqual(cur, prev) {
			t.Fatal("Monos order is not deterministic")
		}
		prev = cur
	}
	if p.String() != "1+v1+v2+v1·v2" {
		t.Errorf("String = %q", p.String())
	}
}

func TestMaxDeg(t *testing.T) {
	if got := NewPoly().MaxDeg(); got != -1 {
		t.Errorf("zero MaxDeg = %d", got)
	}
	if got := Constant(true).MaxDeg(); got != 0 {
		t.Errorf("const MaxDeg = %d", got)
	}
	if got := FromMonos(NewMono(1), NewMono(2, 3, 4)).MaxDeg(); got != 3 {
		t.Errorf("MaxDeg = %d", got)
	}
}

func TestContainsAll(t *testing.T) {
	p := FromMonos(NewMono(1, 2), NewMono(3, 4), NewMono(5))
	if !p.ContainsAll([]Mono{NewMono(1, 2), NewMono(3, 4)}) {
		t.Error("ContainsAll false negative")
	}
	if p.ContainsAll([]Mono{NewMono(1, 2), NewMono(9)}) {
		t.Error("ContainsAll false positive")
	}
	if !p.ContainsAll(nil) {
		t.Error("empty set should be contained")
	}
}

func TestFromTruthTable(t *testing.T) {
	a, b, c := Var(1), Var(2), Var(3)
	// 2-input AND: table indexed by (b<<1)|a.
	and, err := FromTruthTable([]Var{a, b}, []bool{false, false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if !and.Equal(FromMonos(NewMono(a, b))) {
		t.Errorf("AND ANF = %v", and)
	}
	// 2-input OR -> a + b + ab.
	or, err := FromTruthTable([]Var{a, b}, []bool{false, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !or.Equal(FromMonos(NewMono(a), NewMono(b), NewMono(a, b))) {
		t.Errorf("OR ANF = %v", or)
	}
	// AOI21: !(a·b + c).
	tbl := make([]bool, 8)
	for i := 0; i < 8; i++ {
		av, bv, cv := i&1 != 0, i&2 != 0, i&4 != 0
		tbl[i] = !((av && bv) || cv)
	}
	aoi, err := FromTruthTable([]Var{a, b, c}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Verify by exhaustive evaluation.
	for i := 0; i < 8; i++ {
		av, bv, cv := i&1 != 0, i&2 != 0, i&4 != 0
		assign := func(v Var) bool {
			switch v {
			case a:
				return av
			case b:
				return bv
			default:
				return cv
			}
		}
		if aoi.Eval(assign) != tbl[i] {
			t.Errorf("AOI21 ANF wrong at row %d", i)
		}
	}
}

func TestFromTruthTableErrors(t *testing.T) {
	if _, err := FromTruthTable([]Var{1}, []bool{true}); err == nil {
		t.Error("wrong table size should fail")
	}
	if _, err := FromTruthTable(make([]Var, 21), make([]bool, 1<<21)); err == nil {
		t.Error("21 inputs should fail")
	}
}

// --- randomized / property tests -------------------------------------------

// randPoly builds a random polynomial over variables 1..nVars with up to
// maxTerms monomials.
func randPoly(r *rand.Rand, nVars, maxTerms int) Poly {
	p := NewPoly()
	for i := 0; i < r.Intn(maxTerms+1); i++ {
		var vars []Var
		for v := 1; v <= nVars; v++ {
			if r.Intn(2) == 1 {
				vars = append(vars, Var(v))
			}
		}
		p.Toggle(NewMono(vars...))
	}
	return p
}

func assignFromMask(mask int) func(Var) bool {
	return func(v Var) bool { return mask&(1<<uint(v-1)) != 0 }
}

func TestPropSubstitutionPreservesFunction(t *testing.T) {
	// For random p over v1..v6 and random e over v1..v5 (not containing v6),
	// substituting v6 := e must preserve the Boolean function where v6 is
	// bound to e's value. This is the semantic core of Theorem 1.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		p := randPoly(r, 6, 10)
		e := randPoly(r, 5, 6)
		q := p.Clone()
		q.Substitute(6, e)
		if q.ContainsVar(6) {
			t.Fatal("substitution left the variable behind")
		}
		for mask := 0; mask < 1<<5; mask++ {
			base := assignFromMask(mask)
			ev := e.Eval(base)
			full := func(v Var) bool {
				if v == 6 {
					return ev
				}
				return base(v)
			}
			if p.Eval(full) != q.Eval(base) {
				t.Fatalf("trial %d mask %d: substitution changed function\np=%v\ne=%v\nq=%v",
					trial, mask, p, e, q)
			}
		}
	}
}

func TestPropMulMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randPoly(r, 5, 8)
		q := randPoly(r, 5, 8)
		prod := p.Mul(q)
		for mask := 0; mask < 1<<5; mask++ {
			a := assignFromMask(mask)
			if prod.Eval(a) != (p.Eval(a) && q.Eval(a)) {
				t.Fatalf("Mul semantics wrong: p=%v q=%v mask=%d", p, q, mask)
			}
		}
	}
}

func TestPropAddMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		p := randPoly(r, 5, 8)
		q := randPoly(r, 5, 8)
		sum := p.Add(q)
		for mask := 0; mask < 1<<5; mask++ {
			a := assignFromMask(mask)
			if sum.Eval(a) != (p.Eval(a) != q.Eval(a)) {
				t.Fatalf("Add semantics wrong: p=%v q=%v", p, q)
			}
		}
	}
}

func TestPropTruthTableRoundTrip(t *testing.T) {
	// ANF from a random truth table must evaluate back to the table
	// (canonicity of ANF).
	f := func(tbl8 uint8) bool {
		inputs := []Var{1, 2, 3}
		table := make([]bool, 8)
		for i := range table {
			table[i] = tbl8&(1<<uint(i)) != 0
		}
		p, err := FromTruthTable(inputs, table)
		if err != nil {
			return false
		}
		for i := range table {
			if p.Eval(assignFromMask(i)) != table[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMonoMulCommutativeAssociative(t *testing.T) {
	mono := func(mask uint16) Mono {
		var vars []Var
		for i := 0; i < 16; i++ {
			if mask&(1<<uint(i)) != 0 {
				vars = append(vars, Var(i+1))
			}
		}
		return NewMono(vars...)
	}
	comm := func(a, b uint16) bool { return MulMono(mono(a), mono(b)) == MulMono(mono(b), mono(a)) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("mono mul commutativity:", err)
	}
	assoc := func(a, b, c uint16) bool {
		return MulMono(MulMono(mono(a), mono(b)), mono(c)) == MulMono(mono(a), MulMono(mono(b), mono(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error("mono mul associativity:", err)
	}
	idem := func(a uint16) bool { return MulMono(mono(a), mono(a)) == mono(a) }
	if err := quick.Check(idem, nil); err != nil {
		t.Error("mono mul idempotence:", err)
	}
}

func BenchmarkSubstitute(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := randPoly(r, 12, 200)
		p.Substitute(12, randPoly(r, 11, 4))
	}
}

func TestPropOccurrenceIndexConsistency(t *testing.T) {
	// The occurrence index behind ContainsVar/SupportVars/Substitute must
	// stay consistent with the term set through arbitrary operation
	// sequences (toggles, adds, substitutions).
	r := rand.New(rand.NewSource(606))
	for trial := 0; trial < 120; trial++ {
		p := NewPoly()
		for step := 0; step < 60; step++ {
			switch r.Intn(4) {
			case 0, 1:
				var vars []Var
				for v := 1; v <= 6; v++ {
					if r.Intn(2) == 1 {
						vars = append(vars, Var(v))
					}
				}
				p.Toggle(NewMono(vars...))
			case 2:
				p.AddInPlace(randPoly(r, 6, 4))
			case 3:
				v := Var(1 + r.Intn(6))
				e := randPoly(r, 6, 3)
				if e.ContainsVar(v) {
					continue
				}
				p.Substitute(v, e)
			}
		}
		// Cross-check the index against a brute-force scan.
		inSupport := map[Var]bool{}
		for _, m := range p.Monos() {
			for _, v := range m.Vars() {
				inSupport[v] = true
			}
		}
		for v := Var(1); v <= 6; v++ {
			if p.ContainsVar(v) != inSupport[v] {
				t.Fatalf("trial %d: index says ContainsVar(%d)=%v, scan says %v\np=%v",
					trial, v, p.ContainsVar(v), inSupport[v], p)
			}
		}
		if got := p.SupportVars(); len(got) != len(inSupport) {
			t.Fatalf("trial %d: SupportVars=%v, scan=%v", trial, got, inSupport)
		}
	}
}

func TestPropCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(707))
	for trial := 0; trial < 50; trial++ {
		p := randPoly(r, 6, 10)
		q := p.Clone()
		// Mutate the clone heavily; the original must be untouched.
		snapshot := p.String()
		q.AddInPlace(randPoly(r, 6, 8))
		v := Var(1 + r.Intn(6))
		e := randPoly(r, 6, 3)
		if !e.ContainsVar(v) {
			q.Substitute(v, e)
		}
		if p.String() != snapshot {
			t.Fatalf("trial %d: mutating a clone changed the original", trial)
		}
	}
}

func TestEachSupportVarStops(t *testing.T) {
	p := FromMonos(NewMono(2, 5), NewMono(9), NewMono(5, 9))
	seen := 0
	p.EachSupportVar(func(Var) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Errorf("EachSupportVar called yield %d times after it returned false, want 2", seen)
	}
}
