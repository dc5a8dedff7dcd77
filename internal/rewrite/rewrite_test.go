package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/randnet"
)

// buildFigure2 reproduces the post-synthesized GF(2^2) multiplier of the
// paper's Figure 2 (P(x) = x²+x+1) with NAND/XNOR cells.
func buildFigure2(t testing.TB) (n *netlist.Netlist, a [2]int, b [2]int) {
	t.Helper()
	n = netlist.New("fig2")
	a0, _ := n.AddInput("a0")
	a1, _ := n.AddInput("a1")
	b0, _ := n.AddInput("b0")
	b1, _ := n.AddInput("b1")
	s2, _ := n.AddGate(netlist.And, a1, b1)
	g5, _ := n.AddGate(netlist.Nand, a0, b0)
	z0, _ := n.AddGate(netlist.Xnor, g5, s2)
	p0, _ := n.AddGate(netlist.Nand, a0, b1)
	p1, _ := n.AddGate(netlist.Nand, a1, b0)
	g1, _ := n.AddGate(netlist.Xor, p0, p1)
	z1, _ := n.AddGate(netlist.Xor, g1, s2)
	n.SetSignalName(z0, "z0")
	n.SetSignalName(z1, "z1")
	n.MarkOutput("z0", z0)
	n.MarkOutput("z1", z1)
	return n, [2]int{a0, a1}, [2]int{b0, b1}
}

func TestPaperExample2Expressions(t *testing.T) {
	// Figure 3's result: z0 = a0b0 + a1b1, z1 = a1b1 + a1b0 + a0b1.
	n, a, b := buildFigure2(t)
	res, err := Outputs(n, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := func(id int) anf.Var { return anf.Var(id) }
	wantZ0 := anf.FromMonos(
		anf.NewMono(v(a[0]), v(b[0])),
		anf.NewMono(v(a[1]), v(b[1])),
	)
	wantZ1 := anf.FromMonos(
		anf.NewMono(v(a[1]), v(b[1])),
		anf.NewMono(v(a[1]), v(b[0])),
		anf.NewMono(v(a[0]), v(b[1])),
	)
	if !res.Bits[0].Expr.Equal(wantZ0) {
		t.Errorf("z0 = %v, want %v", res.Bits[0].Expr, wantZ0)
	}
	if !res.Bits[1].Expr.Equal(wantZ1) {
		t.Errorf("z1 = %v, want %v", res.Bits[1].Expr, wantZ1)
	}
	// The NAND/XNOR constants must have cancelled (the "2x" eliminations of
	// Figure 3): no constant-1 monomial in either output.
	for i, br := range res.Bits {
		if br.Expr.Contains(anf.MonoOne) {
			t.Errorf("z%d still contains the constant term", i)
		}
	}
}

// assertExprMatchesSimulation checks, on random 64-lane vectors, that each
// extracted ANF evaluates exactly like the netlist's simulated output.
func assertExprMatchesSimulation(t *testing.T, n *netlist.Netlist, res *Result, trials int) {
	t.Helper()
	r := rand.New(rand.NewSource(4242))
	ins := n.Inputs()
	for trial := 0; trial < trials; trial++ {
		words := make([]uint64, len(ins))
		inputVal := map[anf.Var]uint64{}
		for i := range words {
			words[i] = r.Uint64()
			inputVal[anf.Var(ins[i])] = words[i]
		}
		vals, err := n.Simulate(words)
		if err != nil {
			t.Fatal(err)
		}
		outs := n.OutputWords(vals)
		for bit, br := range res.Bits {
			for lane := 0; lane < 64; lane++ {
				want := outs[bit]>>uint(lane)&1 == 1
				got := br.Expr.Eval(func(v anf.Var) bool {
					return inputVal[v]>>uint(lane)&1 == 1
				})
				if got != want {
					t.Fatalf("trial %d bit %d lane %d: expr=%v sim=%v", trial, bit, lane, got, want)
				}
			}
		}
	}
}

func TestRewriteMatchesSimulationMastrovito(t *testing.T) {
	for _, m := range []int{2, 4, 8, 16} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Outputs(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertExprMatchesSimulation(t, n, res, 3)
	}
}

func TestRewriteMatchesSimulationMontgomery(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Montgomery(m, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Outputs(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertExprMatchesSimulation(t, n, res, 3)
	}
}

func TestRewriteMatchesSimulationSynthesized(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.MastrovitoMatrix(8, p)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := opt.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := opt.TechMap(raw, opt.MapNandHeavy)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*netlist.Netlist{syn, mapped} {
		res, err := Outputs(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertExprMatchesSimulation(t, n, res, 3)
	}
}

func TestRewriteCanonicalAcrossArchitectures(t *testing.T) {
	// Mastrovito, matrix Mastrovito, Montgomery and the synthesized variant
	// of the same field must all rewrite to the identical canonical ANF —
	// that is what makes extraction architecture-independent.
	m := 8
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	mast, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Outputs(mast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]*netlist.Netlist{}
	if v, err := gen.MastrovitoMatrix(m, p); err == nil {
		variants["matrix"] = v
	} else {
		t.Fatal(err)
	}
	if v, err := gen.Montgomery(m, p); err == nil {
		variants["montgomery"] = v
	} else {
		t.Fatal(err)
	}
	if v, err := opt.Synthesize(mast); err == nil {
		variants["synthesized"] = v
	} else {
		t.Fatal(err)
	}
	for name, v := range variants {
		res, err := Outputs(v, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for bit := range ref.Bits {
			if !res.Bits[bit].Expr.Equal(ref.Bits[bit].Expr) {
				t.Errorf("%s: bit %d ANF differs from Mastrovito reference", name, bit)
			}
		}
	}
}

func TestRewriteSpecificationMatch(t *testing.T) {
	// The extracted expression of bit c must equal the specification
	// Σ_k [coeff c of x^k mod P] · s_k with s_k = Σ_{i+j=k} a_i b_j.
	m := 8
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Montgomery(m, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Outputs(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := n.Inputs()
	aVar := func(i int) anf.Var { return anf.Var(ins[i]) }
	bVar := func(j int) anf.Var { return anf.Var(ins[m+j]) }
	for c := 0; c < m; c++ {
		spec := anf.NewPoly()
		for k := 0; k <= 2*m-2; k++ {
			if gf2poly.Monomial(k).Mod(p).Coeff(c) != 1 {
				continue
			}
			for i := 0; i < m; i++ {
				j := k - i
				if j < 0 || j >= m {
					continue
				}
				spec.Toggle(anf.NewMono(aVar(i), bVar(j)))
			}
		}
		if !res.Bits[c].Expr.Equal(spec) {
			t.Errorf("bit %d: extracted ANF differs from specification", c)
		}
	}
}

func TestThreadCountsAgree(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Outputs(n, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Outputs(n, Options{Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threads != 1 || par.Threads != 16 {
		t.Errorf("thread bookkeeping wrong: %d, %d", seq.Threads, par.Threads)
	}
	for bit := range seq.Bits {
		if !seq.Bits[bit].Expr.Equal(par.Bits[bit].Expr) {
			t.Errorf("bit %d differs between 1 and 16 threads", bit)
		}
	}
}

func TestStatsArePopulated(t *testing.T) {
	n, _, _ := buildFigure2(t)
	res, err := Outputs(n, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.Bits {
		if br.ConeGates == 0 || br.Substitutions == 0 || br.PeakTerms == 0 || br.FinalTerms == 0 {
			t.Errorf("bit %d stats incomplete: %+v", br.Bit, br.BitStats)
		}
		if br.Name == "" {
			t.Errorf("bit %d has no name", br.Bit)
		}
	}
	if res.TotalSubstitutions() < 7-2 { // at least the shared-cone gates
		t.Errorf("TotalSubstitutions = %d", res.TotalSubstitutions())
	}
	if res.PeakTerms() == 0 || res.EstimatedMemBytes() == 0 {
		t.Error("aggregate stats empty")
	}
	if res.Runtime <= 0 {
		t.Error("runtime not measured")
	}
}

func TestOutputOnInputGate(t *testing.T) {
	// An output wired straight to a primary input rewrites to that variable.
	n := netlist.New("wire")
	a, _ := n.AddInput("a")
	n.MarkOutput("z", a)
	res, err := Outputs(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := anf.Variable(anf.Var(a)); !res.Bits[0].Expr.Equal(want) {
		t.Errorf("z = %v", res.Bits[0].Expr)
	}
}

func TestNoOutputsError(t *testing.T) {
	n := netlist.New("empty")
	n.AddInput("a")
	if _, err := Outputs(n, Options{}); err == nil {
		t.Error("netlist without outputs should fail")
	}
}

func TestRewriteConstantOutput(t *testing.T) {
	n := netlist.New("const")
	a, _ := n.AddInput("a")
	na, _ := n.AddGate(netlist.Not, a)
	x, _ := n.AddGate(netlist.Xor, a, na) // constant 1
	n.MarkOutput("z", x)
	res, err := Outputs(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bits[0].Expr.IsOne() {
		t.Errorf("a ^ !a = %v, want 1", res.Bits[0].Expr)
	}
}

func BenchmarkRewriteMastrovito16(b *testing.B) {
	p, _ := polytab.Default(16)
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Outputs(n, Options{Threads: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPropRewriteMatchesSimulationOnRandomNetlists(t *testing.T) {
	// Algorithm 1's soundness (Theorem 1) on arbitrary DAGs: the canonical
	// ANF of every output must agree with bit-parallel simulation,
	// including LUTs, complex cells, constants and dead logic.
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n, err := randnet.New(r, randnet.Config{
			Inputs:    1 + r.Intn(8),
			Gates:     1 + r.Intn(90),
			Outputs:   1 + r.Intn(4),
			Luts:      trial%2 == 0,
			Constants: trial%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Outputs(n, Options{Threads: 1 + trial%4})
		if err != nil {
			t.Fatal(err)
		}
		assertExprMatchesSimulation(t, n, res, 2)
	}
}

func TestForwardAgreesWithBackward(t *testing.T) {
	// Both directions compute canonical ANF, so they must agree exactly —
	// on multipliers and on random DAGs.
	p, _ := polytab.Default(8)
	designs := []*netlist.Netlist{}
	if n, err := gen.Mastrovito(8, p); err == nil {
		designs = append(designs, n)
	} else {
		t.Fatal(err)
	}
	if n, err := gen.Montgomery(8, p); err == nil {
		designs = append(designs, n)
	} else {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 10; i++ {
		n, err := randnet.New(r, randnet.Config{
			Inputs: 1 + r.Intn(6), Gates: 1 + r.Intn(50), Outputs: 1 + r.Intn(3),
			Luts: true, Constants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, n)
	}
	for di, n := range designs {
		fwd, err := Forward(n)
		if err != nil {
			t.Fatalf("design %d: %v", di, err)
		}
		bwd, err := Outputs(n, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for bit := range bwd.Bits {
			if !fwd.Bits[bit].Expr.Equal(bwd.Bits[bit].Expr) {
				t.Errorf("design %d bit %d: forward and backward ANF differ", di, bit)
			}
		}
	}
}

func TestForwardNoOutputs(t *testing.T) {
	n := netlist.New("none")
	n.AddInput("a")
	if _, err := Forward(n); err == nil {
		t.Error("should fail without outputs")
	}
}

func TestForwardPeakDominatesBackward(t *testing.T) {
	// The baseline holds every gate's input-level expression at once, so
	// its resident term count must exceed the per-cone backward peak on a
	// shared-logic design — the memory-explosion argument of the paper's
	// Section II-B.
	p, _ := polytab.Default(16)
	n, err := gen.Karatsuba(16, p)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := Forward(n)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Outputs(n, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Bits[0].PeakTerms < bwd.PeakTerms() {
		t.Errorf("forward peak %d unexpectedly below backward peak %d",
			fwd.Bits[0].PeakTerms, bwd.PeakTerms())
	}
}

func TestTraceOutputMatchesOutput(t *testing.T) {
	n, _, _ := buildFigure2(t)
	var sb strings.Builder
	for i, root := range n.Outputs() {
		traced, err := TraceOutput(n, root, &sb)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewWorker(nil).RewriteCone(n, i, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Expr.Equal(plain.Expr) {
			t.Errorf("bit %d: traced expression differs", i)
		}
		if traced.Substitutions != plain.Substitutions {
			t.Errorf("bit %d: substitution counts differ (%d vs %d)",
				i, traced.Substitutions, plain.Substitutions)
		}
	}
	out := sb.String()
	// The Figure 3 walkthrough: the z1 thread must show a mod-2
	// cancellation (the "2x" elimination) and the final expressions must
	// appear with signal names.
	if !strings.Contains(out, "cancelled mod 2") {
		t.Errorf("trace shows no cancellations:\n%s", out)
	}
	for _, want := range []string{"a0·b0", "a1·b1", "F0 = z0", "F0 = z1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestFormatPoly(t *testing.T) {
	n, a, b := buildFigure2(t)
	p := anf.FromMonos(
		anf.NewMono(anf.Var(a[0]), anf.Var(b[0])),
		anf.NewMono(anf.Var(a[1])),
		anf.MonoOne,
	)
	got := FormatPoly(p, n)
	if got != "1+a0·b0+a1" {
		t.Errorf("FormatPoly = %q", got)
	}
	if FormatPoly(anf.NewPoly(), n) != "0" {
		t.Error("zero polynomial should print 0")
	}
}
