package sem

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
)

// TestMultiplierBilinearity is the core soundness/precision check from the
// acceptance criteria: every generated multiplier must be classified fully
// linear-in-each-operand with degree-correct output bits — degA = degB = 1,
// degKey = 0, degTot = 2 for every non-constant output.
func TestMultiplierBilinearity(t *testing.T) {
	archs := map[string]func(int) (*netlist.Netlist, error){
		"mastrovito": func(m int) (*netlist.Netlist, error) {
			p, err := polytab.Default(m)
			if err != nil {
				return nil, err
			}
			return gen.Mastrovito(m, p)
		},
		"montgomery": func(m int) (*netlist.Netlist, error) {
			p, err := polytab.Default(m)
			if err != nil {
				return nil, err
			}
			return gen.Montgomery(m, p)
		},
		"mastrovito-matrix": func(m int) (*netlist.Netlist, error) {
			p, err := polytab.Default(m)
			if err != nil {
				return nil, err
			}
			return gen.MastrovitoMatrix(m, p)
		},
		"monpro": func(m int) (*netlist.Netlist, error) {
			p, err := polytab.Default(m)
			if err != nil {
				return nil, err
			}
			return gen.MonPro(m, p)
		},
	}
	for _, m := range []int{8, 64, 163, 233} {
		for name, build := range archs {
			if m > 64 && (name == "mastrovito-matrix") {
				continue // O(m^3) gates; the smaller sizes cover it
			}
			t.Run(fmt.Sprintf("%s/m=%d", name, m), func(t *testing.T) {
				n, err := build(m)
				if err != nil {
					t.Fatal(err)
				}
				r := Analyze(n, Options{})
				if !r.Ports.Partitioned {
					t.Fatalf("ports not partitioned: %+v", r.Ports)
				}
				if r.Ports.APrefix != "a" || r.Ports.BPrefix != "b" {
					t.Fatalf("operand prefixes = %q/%q", r.Ports.APrefix, r.Ports.BPrefix)
				}
				if len(r.Ports.KeyInputs) != 0 {
					t.Fatalf("clean multiplier has %d key inputs (false positives)", len(r.Ports.KeyInputs))
				}
				if !r.LinearPerOperand() {
					t.Fatalf("not linear per operand")
				}
				for _, of := range r.Outputs {
					if of.Const >= 0 {
						continue
					}
					if of.DegA != 1 || of.DegB != 1 || of.DegKey != 0 {
						t.Fatalf("output %s: degA=%d degB=%d degKey=%d, want 1/1/0",
							of.Name, of.DegA, of.DegB, of.DegKey)
					}
					if of.DegTot != 2 {
						t.Fatalf("output %s: degTot=%d, want 2", of.Name, of.DegTot)
					}
					if len(of.KeyInputs) != 0 {
						t.Fatalf("output %s: spurious key inputs %v", of.Name, of.KeyInputs)
					}
				}
			})
		}
	}
}

// TestExactDomainIdentities checks the truth-table sub-domain proves
// algebraic facts syntactic analysis cannot see.
func TestExactDomainIdentities(t *testing.T) {
	n := netlist.New("identities")
	a, _ := n.AddInput("a0")
	b, _ := n.AddInput("b0")

	// x XOR x through two distinct AND paths: AND(a,b) XOR AND(a,b) built
	// as two separate gates, reconverging. Syntactic const folding sees
	// nothing (no constant fanins, distinct gate IDs).
	p1, _ := n.AddGate(netlist.And, a, b)
	p2, _ := n.AddGate(netlist.And, a, b)
	zero, _ := n.AddGate(netlist.Xor, p1, p2)

	// MUX with equal branches is its data input regardless of select.
	mux, _ := n.AddGate(netlist.Mux, p1, p1, b)

	// OR(x, NOT x) = 1.
	na, _ := n.AddGate(netlist.Not, a)
	one, _ := n.AddGate(netlist.Or, a, na)

	// Keep everything reachable.
	t1, _ := n.AddGate(netlist.Xor, zero, mux)
	t2, _ := n.AddGate(netlist.Xor, t1, one)
	n.MarkOutput("z0", t2)
	n.MarkOutput("z1", a)

	r := SweepFacts(n, Options{})
	if v, ok := r.Const(zero); !ok || v {
		t.Errorf("XOR of reconvergent equal paths: const=%v ok=%v, want 0", v, ok)
	}
	if !r.AlgebraicConst(zero) {
		t.Error("reconvergent cancellation not marked algebraic")
	}
	if v, ok := r.Const(one); !ok || !v {
		t.Errorf("OR(x, NOT x): const=%v ok=%v, want 1", v, ok)
	}
	if _, ok := r.Const(mux); ok {
		t.Error("MUX with equal branches is not constant (it is p1)")
	}
	if da, db, _, dt := r.Degrees(mux); da != 1 || db != 1 || dt != 2 {
		t.Errorf("MUX(p,p,s) degrees = %d/%d/%d, want 1/1/2 (equals p)", da, db, dt)
	}
	// z0 = 0 ^ p1 ^ 1 = NOT p1: degree (1,1).
	if da, db, _, dt := r.Degrees(t2); da != 1 || db != 1 || dt != 2 {
		t.Errorf("output degrees = %d/%d/%d, want 1/1/2", da, db, dt)
	}
	if !r.Exact(t2) {
		t.Error("two-input cone should stay in the exact domain")
	}
	// The Result keeps the algebraic constants, and their values, of the
	// facts it was built from.
	if got, want := Analyze(n, Options{}).AlgebraicConsts(), []GateConst{{Gate: zero}, {Gate: one, Value: true}}; !slices.Equal(got, want) {
		t.Errorf("AlgebraicConsts = %v, want %v", got, want)
	}
}

// TestKeyGateDetection plants surplus key inputs and checks support
// tracking flags exactly the gated outputs.
func TestKeyGateDetection(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	obf, keys, err := gen.Obfuscate(n, gen.ObfuscateOptions{Style: gen.ObfXor, Keys: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(obf, Options{})
	if !r.Ports.Partitioned {
		t.Fatal("obfuscated multiplier ports not partitioned")
	}
	if len(r.Ports.KeyInputs) != len(keys.KeyInputs) {
		t.Fatalf("classified %d key inputs, planted %d", len(r.Ports.KeyInputs), len(keys.KeyInputs))
	}
	gated := r.GatedKeyInputs()
	if len(gated) != len(keys.KeyInputs) {
		t.Fatalf("flagged %d gated keys %v, planted %v", len(gated), gated, keys.KeyInputs)
	}
	want := map[int]bool{}
	for _, id := range keys.KeyInputs {
		want[id] = true
	}
	for _, id := range gated {
		if !want[id] {
			t.Fatalf("flagged non-planted input %d (%s)", id, obf.NameOf(id))
		}
	}
}

// TestSupportWidening forces the intern table past its cap and checks the
// analysis stays sound (support only grows) and key membership survives.
func TestSupportWidening(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	full := Analyze(n, Options{})
	widened := Analyze(n, Options{MaxSets: 16})
	if widened.Widened == 0 {
		t.Fatal("expected widening events with a 16-set cap")
	}
	if len(full.Outputs) != len(widened.Outputs) {
		t.Fatal("output count mismatch")
	}
	for i := range full.Outputs {
		if widened.Outputs[i].SupportSize < full.Outputs[i].SupportSize {
			t.Fatalf("output %d: widened support %d < precise support %d (unsound)",
				i, widened.Outputs[i].SupportSize, full.Outputs[i].SupportSize)
		}
		if widened.Outputs[i].DegA != full.Outputs[i].DegA || widened.Outputs[i].DegB != full.Outputs[i].DegB {
			t.Fatalf("output %d: widening changed degrees", i)
		}
		if len(widened.Outputs[i].KeyInputs) != 0 {
			t.Fatalf("output %d: widening fabricated key inputs", i)
		}
	}
}

// TestUnpartitionedPorts checks scrambled/anonymous designs disable key
// detection rather than guessing.
func TestUnpartitionedPorts(t *testing.T) {
	n := netlist.New("anon")
	var ins []int
	for i := 0; i < 6; i++ {
		id, _ := n.AddInput(fmt.Sprintf("sig%d", i))
		ins = append(ins, id)
	}
	cur := ins[0]
	for _, id := range ins[1:] {
		cur, _ = n.AddGate(netlist.And, cur, id)
	}
	x, _ := n.AddGate(netlist.Xor, cur, ins[0])
	n.MarkOutput("out0", cur)
	n.MarkOutput("out1", x)
	r := Analyze(n, Options{})
	if r.Ports.Partitioned {
		t.Fatalf("single-vector design should not partition: %+v", r.Ports)
	}
	if got := r.GatedKeyInputs(); len(got) != 0 {
		t.Fatalf("unpartitioned design flagged keys %v", got)
	}
	// All inputs default to ClassA; total degree still tracked.
	if _, _, _, dt := SweepFacts(n, Options{}).Degrees(cur); dt != 6 {
		t.Fatalf("AND chain degTot = %d, want 6", dt)
	}
}

// TestAnalyzeCached checks the content-addressed cache shares results.
func TestAnalyzeCached(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Montgomery(8, p)
	if err != nil {
		t.Fatal(err)
	}
	r1 := AnalyzeCached(n, Options{})
	r2 := AnalyzeCached(n, Options{})
	if r1 != r2 {
		t.Error("identical netlists did not share a cached result")
	}
}

// TestDegenerateInputs exercises edge shapes the fuzzer will feed.
func TestDegenerateInputs(t *testing.T) {
	// No inputs at all.
	n := netlist.New("consts")
	c0, _ := n.AddGate(netlist.Const0)
	c1, _ := n.AddGate(netlist.Const1)
	x, _ := n.AddGate(netlist.Xor, c0, c1)
	n.MarkOutput("z0", x)
	r := SweepFacts(n, Options{})
	if v, ok := r.Const(x); !ok || !v {
		t.Errorf("XOR(0,1): const=%v ok=%v", v, ok)
	}
	if r.AlgebraicConst(x) {
		t.Error("constant propagation wrongly marked algebraic")
	}

	// Output directly on an input.
	n2 := netlist.New("wire")
	a, _ := n2.AddInput("a0")
	n2.MarkOutput("z0", a)
	r2 := Analyze(n2, Options{})
	if r2.Outputs[0].DegTot != 1 || r2.Outputs[0].SupportSize != 1 {
		t.Errorf("wire output fact: %+v", r2.Outputs[0])
	}

	// LUT wider than the exact domain (7 inputs) takes the coarse path.
	n3 := netlist.New("widelut")
	var ins []int
	for i := 0; i < 7; i++ {
		id, _ := n3.AddInput(fmt.Sprintf("a%d", i))
		ins = append(ins, id)
	}
	table := make([]bool, 1<<7)
	for i := range table {
		table[i] = i%3 == 0
	}
	lut, _ := n3.AddLut(table, ins...)
	n3.MarkOutput("z0", lut)
	r3 := Analyze(n3, Options{})
	if r3.Outputs[0].SupportSize != 7 {
		t.Errorf("wide LUT support = %d, want 7", r3.Outputs[0].SupportSize)
	}
	if _, _, _, dt := SweepFacts(n3, Options{}).Degrees(lut); dt != 7 {
		t.Errorf("wide LUT coarse degTot = %d, want 7", dt)
	}
}

// TestTruthTableHelpers pins the bit-level helpers.
func TestTruthTableHelpers(t *testing.T) {
	// XOR of two variables: tt = 0110.
	xor2 := uint64(0b0110)
	if got := mobius(xor2, 2); got != 0b0110 {
		t.Errorf("mobius(xor) = %04b, want 0110 (x ^ y)", got)
	}
	// AND: tt = 1000 -> ANF has only the xy monomial (row 3).
	and2 := uint64(0b1000)
	if got := mobius(and2, 2); got != 0b1000 {
		t.Errorf("mobius(and) = %04b, want 1000 (xy)", got)
	}
	// OR: tt = 1110 -> x ^ y ^ xy (rows 1, 2, 3).
	or2 := uint64(0b1110)
	if got := mobius(or2, 2); got != 0b1110 {
		t.Errorf("mobius(or) = %04b, want 1110 (x ^ y ^ xy)", got)
	}
	if !essential(xor2, 2, 0) || !essential(xor2, 2, 1) {
		t.Error("xor essential vars")
	}
	// f = x0 (ignores x1): tt = 1010.
	proj := uint64(0b1010)
	if essential(proj, 2, 1) {
		t.Error("projection should not depend on x1")
	}
	if got := dropVar(proj, 2, 1); got != 0b10 {
		t.Errorf("dropVar = %02b, want 10", got)
	}
	if unateIn(xor2, 2, 0) {
		t.Error("xor is not unate")
	}
	if !unateIn(and2, 2, 0) || !unateIn(or2, 2, 1) {
		t.Error("and/or are unate")
	}
}

// TestDupAtInsertsIgnoredVariable checks the word-parallel lift row by row:
// inserting variable p into a table over vars variables gives the table
// whose row r reads the old table at r with bit p deleted, and dropVar
// undoes it.
func TestDupAtInsertsIgnoredVariable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for vars := 0; vars < 6; vars++ {
		for p := 0; p <= vars; p++ {
			for range 20 {
				tt := rng.Uint64() & rowMask(vars)
				got := dupAt(tt, vars, p)
				for r := 0; r < 1<<(vars+1); r++ {
					old := r&(1<<p-1) | r>>(p+1)<<p
					if got>>r&1 != tt>>old&1 {
						t.Fatalf("dupAt(%#x, %d, %d) row %d = %d, want %d", tt, vars, p, r, got>>r&1, tt>>old&1)
					}
				}
				if back := dropVar(got, vars+1, p); back != tt {
					t.Fatalf("dropVar(dupAt(%#x, %d, %d)) = %#x", tt, vars, p, back)
				}
			}
		}
	}
}

// TestSuppPoolInternsThroughGrowth interns more sets than the pool was
// sized for, so its slot table rehashes several times, and checks that
// every set keeps one ID and every lookup finds exactly its own set.
func TestSuppPoolInternsThroughGrowth(t *testing.T) {
	classes := make([]Class, 130)
	p := newSuppPool(len(classes), 1<<20, 8, classes)
	rng := rand.New(rand.NewSource(9))
	var sets [][]uint64
	for range 3000 {
		s := make([]uint64, 3)
		for i := range s {
			s[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		s[2] &= 3 // 130 inputs: two bits in the last word
		sets = append(sets, s)
	}
	ids := make([]int32, len(sets))
	for i, s := range sets {
		ids[i] = p.intern(append([]uint64(nil), s...))
	}
	for i, s := range sets {
		if id := p.intern(append([]uint64(nil), s...)); id != ids[i] {
			t.Fatalf("set %d re-interned as %d, first as %d", i, id, ids[i])
		}
		if id := p.lookup(s); id != ids[i] || !slices.Equal(p.get(id), s) {
			t.Fatalf("set %d: lookup %d, interned %d", i, id, ids[i])
		}
	}
	if p.widens != 0 {
		t.Errorf("%d widenings below the cap", p.widens)
	}
}

// TestExactFactsMatchBruteForce checks every exact fact against the wire's
// full truth table: on random DAGs of plain cells over six named operand
// bits (and over six unpartitioned inputs), each wire is simulated on all
// 64 input rows, and its constness, support, per-class ANF degrees and
// unateness are recomputed from that table. Partial products, disjoint
// compositions and reconvergent ones all occur, so every route through
// the exact domain is held to the same oracle.
func TestExactFactsMatchBruteForce(t *testing.T) {
	cells := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Xnor, netlist.Nand, netlist.Nor, netlist.Not, netlist.Buf}
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		names := []string{"a0", "a1", "a2", "b0", "b1", "b2"}
		if iter%3 == 2 {
			names = []string{"x0", "x1", "x2", "x3", "x4", "x5"}
		}
		n := netlist.New(fmt.Sprintf("brute%d", iter))
		for _, name := range names {
			if _, err := n.AddInput(name); err != nil {
				t.Fatal(err)
			}
		}
		for g := 0; g < 40; g++ {
			typ := cells[r.Intn(len(cells))]
			fanin := []int{r.Intn(n.NumGates())}
			if typ != netlist.Not && typ != netlist.Buf {
				fanin = append(fanin, r.Intn(n.NumGates()))
			}
			if _, err := n.AddGate(typ, fanin...); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.MarkOutput("z0", n.NumGates()-1); err != nil {
			t.Fatal(err)
		}
		res := SweepFacts(n, Options{})

		// Input i's word holds bit i of every row index 0..63.
		words := make([]uint64, len(names))
		for i := range words {
			words[i] = ^lowMask[i]
		}
		vals, err := n.Simulate(words)
		if err != nil {
			t.Fatal(err)
		}
		for id, tt := range vals {
			if !res.Exact(id) {
				t.Fatalf("iter %d gate %d: six-input wire left the exact domain", iter, id)
			}
			var supp []int
			for i := range names {
				if essential(tt, 6, i) {
					supp = append(supp, n.Inputs()[i])
				}
			}
			if v, ok := res.Const(id); ok != (len(supp) == 0) || ok && v != (tt&1 == 1) {
				t.Fatalf("iter %d gate %d: const = %v/%v for table %#x", iter, id, v, ok, tt)
			}
			if got := res.SupportInputs(id); !slices.Equal(got, supp) {
				t.Fatalf("iter %d gate %d: support %v, want %v", iter, id, got, supp)
			}
			var wantA, wantB, wantK, wantTot int
			for s := mobius(tt, 6) &^ 1; s != 0; s &= s - 1 {
				m := bits.TrailingZeros64(s)
				var da, db, dk int
				for i := range names {
					if m>>uint(i)&1 == 0 {
						continue
					}
					switch res.ports.Class[i] {
					case ClassA:
						da++
					case ClassB:
						db++
					default:
						dk++
					}
				}
				wantA, wantB, wantK = max(wantA, da), max(wantB, db), max(wantK, dk)
				wantTot = max(wantTot, da+db+dk)
			}
			if da, db, dk, dt := res.Degrees(id); da != wantA || db != wantB || dk != wantK || dt != wantTot {
				t.Fatalf("iter %d gate %d (%v): degrees %d/%d/%d/%d, want %d/%d/%d/%d",
					iter, id, n.Gate(id).Type, da, db, dk, dt, wantA, wantB, wantK, wantTot)
			}
			unate := true
			for i := range names {
				if !unateIn(tt, 6, i) {
					unate = false
				}
			}
			if res.Unate(id) != unate {
				t.Fatalf("iter %d gate %d (%v): unate = %v, want %v", iter, id, n.Gate(id).Type, res.Unate(id), unate)
			}
		}
	}
}

// TestCacheKeyPinsGateArray checks what the cache key adds to the canonical
// hash: a netlist and its EQN round-trip share their canonical text, but
// the round-trip turns an output alias into a buffer gate and so indexes
// its facts differently. The two must not share a cached Result, while a
// second parse of the same text must.
func TestCacheKeyPinsGateArray(t *testing.T) {
	n := netlist.New("alias")
	a, _ := n.AddInput("a0")
	b, _ := n.AddInput("b0")
	x, _ := n.AddGate(netlist.And, a, b)
	if err := n.SetSignalName(x, "p"); err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("z0", x); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := n.WriteEQN(&text); err != nil {
		t.Fatal(err)
	}
	parse := func() *netlist.Netlist {
		p, err := netlist.ReadEQN(bytes.NewReader(text.Bytes()), "alias")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rt := parse()
	if rt.NumGates() == n.NumGates() {
		t.Fatalf("round-trip kept %d gates: the case does not exercise the key", rt.NumGates())
	}
	dn, _ := n.Digest()
	drt, _ := rt.Digest()
	if dn != drt {
		t.Fatalf("round-trip changed the canonical hash: the case does not exercise the key")
	}
	orig, round := AnalyzeCached(n, Options{}), AnalyzeCached(rt, Options{})
	if orig == round {
		t.Fatal("a netlist and its round-trip share one cached Result despite different gate arrays")
	}
	if g := round.Outputs[0].Gate; rt.Gate(g).Type != netlist.Buf {
		t.Errorf("round-trip output fact is on gate %d (%v), want its buffer", g, rt.Gate(g).Type)
	}
	if again := AnalyzeCached(parse(), Options{}); again != round {
		t.Error("two parses of the same text did not share a cached Result")
	}
}

// TestConcurrentSweepsShareSpare runs sweeps of differently sized netlists
// from several goroutines at once: they hand the spare working state from
// one to the next, and every Result must still equal its netlist's
// sequential one.
func TestConcurrentSweepsShareSpare(t *testing.T) {
	var nets []*netlist.Netlist
	for _, m := range []int{8, 16, 24} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Montgomery(m, p)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	want := make([]*Result, len(nets))
	for i, n := range nets {
		want[i] = Analyze(n, Options{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(nets)
				got := Analyze(nets[i], Options{})
				if !slices.EqualFunc(got.Outputs, want[i].Outputs, func(a, b OutputFact) bool {
					return a.Gate == b.Gate && a.Const == b.Const && a.Exact == b.Exact &&
						a.DegA == b.DegA && a.DegB == b.DegB && a.DegKey == b.DegKey && a.DegTot == b.DegTot &&
						a.SupportSize == b.SupportSize && slices.Equal(a.KeyInputs, b.KeyInputs)
				}) || !slices.Equal(got.AlgebraicConsts(), want[i].AlgebraicConsts()) {
					t.Errorf("goroutine %d: sweep of %s differs from its sequential result", g, nets[i].Name)
				}
			}
		}(g)
	}
	wg.Wait()
}
