package netlist

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
)

// buildFigure2 constructs the post-synthesized 2-bit GF(2^2) multiplier of
// Figure 2 in the paper (P(x) = x²+x+1):
//
//	s2 = a1·b1          (G6... naming follows the schematic's signals)
//	p0 = !(a0·b1)       z0 = !(G5) where G5 = !(a0b0)·!(s2)… — the figure's
//	p1 = !(a1·b0)       exact gate set is reproduced below.
//
// Gates per Figure 2: G6=AND(a1,b1)->s2, G5=NAND(a0,b0), G4=NAND(a1,b0),
// G3=NAND(a0,b1), G2=XNOR? … The figure is drawn with:
//
//	z0 = s0 XOR s2 with s0 = a0·b0
//	z1 = s1 XOR s2 with s1 = a0b1 + a1b0
//
// implemented as: s2=AND(a1,b1); G5=NAND(a0,b0) (so s0 = !G5);
// z0 = XNOR(G5, s2); p0=NAND(a0,b1); p1=NAND(a1,b0); G1=XOR(p0,p1);
// z1 = XOR(G1, s2). This matches the rewriting trace of Figure 3
// (e.g. G1 contributes s1 = p0+p1 with the constants cancelling).
func buildFigure2(t testing.TB) *Netlist {
	t.Helper()
	n := New("fig2_gf4_mult")
	a0, err := n.AddInput("a0")
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := n.AddInput("a1")
	b0, _ := n.AddInput("b0")
	b1, _ := n.AddInput("b1")
	s2, _ := n.AddGate(And, a1, b1)
	g5, _ := n.AddGate(Nand, a0, b0)
	z0, _ := n.AddGate(Xnor, g5, s2)
	p0, _ := n.AddGate(Nand, a0, b1)
	p1, _ := n.AddGate(Nand, a1, b0)
	g1, _ := n.AddGate(Xor, p0, p1)
	z1, _ := n.AddGate(Xor, g1, s2)
	for id, name := range map[int]string{s2: "s2", g5: "g5", z0: "z0", p0: "p0", p1: "p1", g1: "g1", z1: "z1"} {
		if err := n.SetSignalName(id, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.MarkOutput("z0", z0); err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("z1", z1); err != nil {
		t.Fatal(err)
	}
	return n
}

// gf4Mul multiplies in GF(2^2) with P(x)=x²+x+1, operands as 2-bit ints.
func gf4Mul(a, b uint) uint {
	var prod uint
	for i := uint(0); i < 2; i++ {
		if b&(1<<i) != 0 {
			prod ^= a << i
		}
	}
	// reduce bits 2,3 with x^2 = x+1, x^3 = x^2+x = (x+1)+x = 1... do it
	// iteratively from the top.
	if prod&8 != 0 {
		prod ^= 8 | 6 // x^3 -> x^2+x
	}
	if prod&4 != 0 {
		prod ^= 4 | 3 // x^2 -> x+1
	}
	return prod & 3
}

func TestFigure2IsAGF4Multiplier(t *testing.T) {
	n := buildFigure2(t)
	for a := uint(0); a < 4; a++ {
		for b := uint(0); b < 4; b++ {
			in := []uint64{uint64(a & 1), uint64(a >> 1), uint64(b & 1), uint64(b >> 1)}
			// Broadcast single bits to lane 0 only; lane 0 carries the test.
			vals, err := n.Simulate(in)
			if err != nil {
				t.Fatal(err)
			}
			outs := n.OutputWords(vals)
			got := uint(outs[0]&1) | uint(outs[1]&1)<<1
			if want := gf4Mul(a, b); got != want {
				t.Errorf("%d * %d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAddGateValidation(t *testing.T) {
	n := New("t")
	a, _ := n.AddInput("a")
	if _, err := n.AddGate(Input); err == nil {
		t.Error("AddGate(Input) should fail")
	}
	if _, err := n.AddGate(And, a); err == nil {
		t.Error("AND with one fanin should fail")
	}
	if _, err := n.AddGate(Not, 5); err == nil {
		t.Error("forward fanin reference should fail")
	}
	if _, err := n.AddGate(Not, -1); err == nil {
		t.Error("negative fanin should fail")
	}
	if _, err := n.AddGate(Lut, a); err == nil {
		t.Error("AddGate(Lut) should direct to AddLut")
	}
	if _, err := n.AddLut([]bool{true}, a); err == nil {
		t.Error("LUT with wrong table size should fail")
	}
	if _, err := n.AddLut(nil); err == nil {
		t.Error("LUT with no inputs should fail")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	n := New("t")
	if _, err := n.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddInput("a"); err == nil {
		t.Error("duplicate input name should fail")
	}
	id, _ := n.AddGate(Const1)
	if err := n.SetSignalName(id, "a"); err == nil {
		t.Error("duplicate signal name should fail")
	}
}

func TestConeExtraction(t *testing.T) {
	n := buildFigure2(t)
	z0, _ := n.Lookup("z0")
	z1, _ := n.Lookup("z1")
	cone0 := n.Cone(z0)
	cone1 := n.Cone(z1)
	// z0's cone: a0,a1,b0,b1? a1 and b1 feed s2 which feeds z0; a0,b0 feed
	// g5. So cone0 = {a0,a1,b0,b1,s2,g5,z0} = 7 nodes.
	if len(cone0) != 7 {
		t.Errorf("cone(z0) = %v (%d nodes), want 7", cone0, len(cone0))
	}
	// z1's cone excludes g5 and z0: {a0,a1,b0,b1,s2,p0,p1,g1,z1} = 9.
	if len(cone1) != 9 {
		t.Errorf("cone(z1) = %v (%d nodes), want 9", cone1, len(cone1))
	}
	// Cones are ascending (topological).
	for i := 1; i < len(cone1); i++ {
		if cone1[i] <= cone1[i-1] {
			t.Fatal("cone not in ascending order")
		}
	}
}

func TestLevelsAndStats(t *testing.T) {
	n := buildFigure2(t)
	// Longest path: p0 -> g1 -> z1.
	_, depth := n.Levels()
	if depth != 3 {
		t.Errorf("depth = %d, want 3", depth)
	}
	s := n.Stats()
	if s.Inputs != 4 || s.Outputs != 2 || s.Gates != 11 || s.Equations != 7 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByType[Nand] != 3 || s.ByType[Xor] != 2 || s.ByType[And] != 1 || s.ByType[Xnor] != 1 {
		t.Errorf("ByType = %v", s.ByType)
	}
}

func TestNumEquationsCountsNonInputs(t *testing.T) {
	n := New("t")
	a, _ := n.AddInput("a")
	if n.NumEquations() != 0 {
		t.Error("inputs are not equations")
	}
	n.AddGate(Not, a)
	n.AddGate(Const1)
	if n.NumEquations() != 2 {
		t.Errorf("NumEquations = %d", n.NumEquations())
	}
}

// TestGateANFMatchesSimulation: for every gate type and every wiring of
// its fanin slots to inputs — repeated fanins included — the algebraic
// model of Eq. (1) must agree with the Boolean simulation semantics on all
// input combinations: the inductive step of Theorem 1.
func TestGateANFMatchesSimulation(t *testing.T) {
	for _, c := range repeatedFaninCases() {
		n, gid := c.build(t)
		k := len(c.pick)
		poly, err := n.GateANF(gid)
		if err != nil {
			t.Fatalf("%v%v: GateANF: %v", c.typ, c.pick, err)
		}
		words := make([]uint64, k)
		for i := range words {
			// Input i carries bit i of the row number in lane row.
			for row := 0; row < 1<<uint(k); row++ {
				words[i] |= uint64(row>>uint(i)&1) << uint(row)
			}
		}
		vals, err := n.Simulate(words)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < 1<<uint(k); row++ {
			simBit := vals[gid]>>uint(row)&1 == 1
			anfBit := poly.Eval(func(v anf.Var) bool { return row>>uint(v)&1 == 1 })
			if simBit != anfBit {
				t.Errorf("%v%v row %d: sim=%v anf=%v (poly %v)", c.typ, c.pick, row, simBit, anfBit, poly)
			}
		}
	}
}

func TestGateANFLut(t *testing.T) {
	// 3-input majority LUT.
	n := New("t")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	c, _ := n.AddInput("c")
	table := make([]bool, 8)
	for row := range table {
		ones := row&1 + row>>1&1 + row>>2&1
		table[row] = ones >= 2
	}
	id, err := n.AddLut(table, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	poly, err := n.GateANF(id)
	if err != nil {
		t.Fatal(err)
	}
	// maj(a,b,c) = ab + ac + bc in ANF.
	want := anf.FromMonos(
		anf.NewMono(anf.Var(a), anf.Var(b)),
		anf.NewMono(anf.Var(a), anf.Var(c)),
		anf.NewMono(anf.Var(b), anf.Var(c)),
	)
	if !poly.Equal(want) {
		t.Errorf("majority ANF = %v, want %v", poly, want)
	}
}

func TestGateANFInputFails(t *testing.T) {
	n := New("t")
	a, _ := n.AddInput("a")
	if _, err := n.GateANF(a); err == nil {
		t.Error("GateANF on a primary input should fail")
	}
}

func TestSimulateBitParallel(t *testing.T) {
	// 64 random vectors at once must match 64 single-vector runs.
	n := buildFigure2(t)
	r := rand.New(rand.NewSource(21))
	words := []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	vals, err := n.Simulate(words)
	if err != nil {
		t.Fatal(err)
	}
	outs := n.OutputWords(vals)
	for lane := 0; lane < 64; lane++ {
		a := uint(words[0]>>uint(lane))&1 | (uint(words[1]>>uint(lane))&1)<<1
		b := uint(words[2]>>uint(lane))&1 | (uint(words[3]>>uint(lane))&1)<<1
		got := uint(outs[0]>>uint(lane))&1 | (uint(outs[1]>>uint(lane))&1)<<1
		if want := gf4Mul(a, b); got != want {
			t.Fatalf("lane %d: %d*%d = %d, want %d", lane, a, b, got, want)
		}
	}
}

func TestSimulateInputCountMismatch(t *testing.T) {
	n := buildFigure2(t)
	if _, err := n.Simulate([]uint64{1, 2}); err == nil {
		t.Error("wrong input count should fail")
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || Aoi21.String() != "AOI21" {
		t.Error("GateType names wrong")
	}
	if GateType(200).String() == "" {
		t.Error("unknown GateType should still render")
	}
}

// TestDigestMemo pins the memoized canonical digest to the netlist's
// content: a rename of the model, a renamed signal and a new gate each
// yield the digest a fresh computation gives, and an unchanged netlist
// reuses the memo.
func TestDigestMemo(t *testing.T) {
	fresh := func(n *Netlist) string {
		h := sha256.New()
		if err := n.WriteEQN(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	n := New("memo")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	x, _ := n.AddGate(Xor, a, b)
	if err := n.MarkOutput("z", x); err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		got, err := n.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(n); got != want {
			t.Errorf("%s: digest %s, want %s", what, got, want)
		}
	}
	check("built")
	before := DigestsComputed()
	check("unchanged")
	if d := DigestsComputed() - before; d != 0 {
		t.Errorf("an unchanged netlist computed %d more digests, want 0", d)
	}
	n.Name = "renamed"
	check("model renamed")
	if err := n.SetSignalName(x, "x"); err != nil {
		t.Fatal(err)
	}
	check("signal renamed")
	if _, err := n.AddGate(And, a, b); err != nil {
		t.Fatal(err)
	}
	check("gate added")
}
