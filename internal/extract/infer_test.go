package extract

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// scramble rebuilds n with inputs permuted and renamed to meaningless
// identifiers, and outputs permuted and renamed — the anonymized third-party
// netlist scenario.
func scramble(t *testing.T, n *netlist.Netlist, seed int64) *netlist.Netlist {
	t.Helper()
	s, _, _ := scrambleMap(t, n, seed)
	return s
}

// scrambleMap is scramble that also returns the planted mapping: the new
// gate ID of every old gate, and the new position of every old output.
func scrambleMap(t *testing.T, n *netlist.Netlist, seed int64) (*netlist.Netlist, []int, []int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ins := n.Inputs()
	perm := r.Perm(len(ins))
	out := netlist.New(n.Name + "_scrambled")
	mapping := make([]int, n.NumGates())
	// Add inputs in permuted order with opaque names.
	for newPos, oldPos := range perm {
		id, err := out.AddInput(fmt.Sprintf("sig_%03d", newPos))
		if err != nil {
			t.Fatal(err)
		}
		mapping[ins[oldPos]] = id
	}
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = mapping[f]
		}
		var nid int
		var err error
		if g.Type == netlist.Lut {
			nid, err = out.AddLut(g.Table, fanin...)
		} else {
			nid, err = out.AddGate(g.Type, fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
		mapping[id] = nid
	}
	outs := n.Outputs()
	operm := r.Perm(len(outs))
	outPos := make([]int, len(outs))
	for newPos, oldPos := range operm {
		if err := out.MarkOutput(fmt.Sprintf("port_%03d", newPos), mapping[outs[oldPos]]); err != nil {
			t.Fatal(err)
		}
		outPos[oldPos] = newPos
	}
	return out, mapping, outPos
}

func TestInferPortsOnScrambledMultipliers(t *testing.T) {
	for _, tc := range []struct {
		m     int
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
		name  string
	}{
		{4, gen.Mastrovito, "mastrovito4"},
		{8, gen.Mastrovito, "mastrovito8"},
		{16, gen.MastrovitoMatrix, "matrix16"},
		{8, gen.Montgomery, "montgomery8"},
		{23, gen.Mastrovito, "mastrovito23"},
	} {
		p, err := polytab.Default(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := tc.build(tc.m, p)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			s := scramble(t, n, seed)
			ext, ip, err := IrreduciblePolynomialInferred(s, Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if !ext.P.Equal(p) {
				t.Errorf("%s seed %d: extracted %v, want %v", tc.name, seed, ext.P, p)
			}
			if !ext.Verified {
				t.Errorf("%s seed %d: not verified", tc.name, seed)
			}
			if len(ip.A) != tc.m || len(ip.B) != tc.m || len(ip.OutputOrder) != tc.m {
				t.Errorf("%s seed %d: malformed port inference %+v", tc.name, seed, ip)
			}
		}
	}
}

func TestInferPortsRecoversExactMapping(t *testing.T) {
	// On an UNscrambled netlist, inference must reproduce the canonical
	// mapping (up to the immaterial A/B operand swap).
	p, _ := polytab.Default(8)
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Outputs(n, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := InferPorts(n, rw)
	if err != nil {
		t.Fatal(err)
	}
	ins := n.Inputs()
	wantA, wantB := ins[:8], ins[8:]
	sameSlice := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	ok := sameSlice(ip.A, wantA) && sameSlice(ip.B, wantB) ||
		sameSlice(ip.A, wantB) && sameSlice(ip.B, wantA)
	if !ok {
		t.Errorf("inferred A=%v B=%v, want %v/%v (either order)", ip.A, ip.B, wantA, wantB)
	}
	for k, pos := range ip.OutputOrder {
		if k != pos {
			t.Errorf("output order: z_%d inferred at position %d", k, pos)
		}
	}
}

func TestInferPortsRejectsNonMultiplier(t *testing.T) {
	// XOR-only circuit: monomials are degree 1, not products.
	n := netlist.New("xors")
	a, _ := n.AddInput("x0")
	b, _ := n.AddInput("x1")
	c, _ := n.AddInput("x2")
	d, _ := n.AddInput("x3")
	g1, _ := n.AddGate(netlist.Xor, a, b)
	g2, _ := n.AddGate(netlist.Xor, c, d)
	n.MarkOutput("o0", g1)
	n.MarkOutput("o1", g2)
	rw, err := rewrite.Outputs(n, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferPorts(n, rw); !errors.Is(err, ErrNotMultiplier) {
		t.Errorf("want ErrNotMultiplier, got %v", err)
	}
}

func TestInferPortsRejectsNonBipartite(t *testing.T) {
	// Products within one "operand": a0·a1 makes the graph odd-cyclic when
	// combined with cross products... simplest: triangle x0x1, x1x2, x0x2.
	n := netlist.New("tri")
	x0, _ := n.AddInput("x0")
	x1, _ := n.AddInput("x1")
	x2, _ := n.AddInput("x2")
	x3, _ := n.AddInput("x3")
	_ = x3
	g1, _ := n.AddGate(netlist.And, x0, x1)
	g2, _ := n.AddGate(netlist.And, x1, x2)
	g3, _ := n.AddGate(netlist.And, x0, x2)
	o1, _ := n.AddGate(netlist.Xor, g1, g2)
	n.MarkOutput("o0", o1)
	n.MarkOutput("o1", g3)
	rw, err := rewrite.Outputs(n, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferPorts(n, rw); !errors.Is(err, ErrNotMultiplier) {
		t.Errorf("want ErrNotMultiplier, got %v", err)
	}
}

func TestInferredExtractionDetectsTampering(t *testing.T) {
	p, _ := polytab.Default(8)
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := scramble(t, tamper(t, n, 7), 1)
	_, _, err = IrreduciblePolynomialInferred(bad, Options{})
	if err == nil {
		t.Fatal("tampered scrambled design should fail")
	}
}

func TestReorderBitsPermutation(t *testing.T) {
	rw := &rewrite.Result{Bits: make([]rewrite.BitResult, 3)}
	for i := range rw.Bits {
		rw.Bits[i].Bit = i
	}
	ip := &InferredPorts{OutputOrder: []int{2, 0, 1}}
	got := ip.ReorderBits(rw)
	if got.Bits[0].Bit != 2 || got.Bits[1].Bit != 0 || got.Bits[2].Bit != 1 {
		t.Errorf("reorder wrong: %+v", got.Bits)
	}
}

func TestInferPortsToleratesDanglingInputs(t *testing.T) {
	// A netlist with unused pins (scan enable, spare inputs) must still
	// infer and extract.
	p, _ := polytab.Default(8)
	base, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	n := netlist.New("dangling")
	// Interleave dangling pins before, between and after the operands.
	if _, err := n.AddInput("scan_en"); err != nil {
		t.Fatal(err)
	}
	mapping := make([]int, base.NumGates())
	ins := base.Inputs()
	for i, id := range ins {
		nid, err := n.AddInput(base.NameOf(id))
		if err != nil {
			t.Fatal(err)
		}
		mapping[id] = nid
		if i == 7 {
			if _, err := n.AddInput("spare0"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := n.AddInput("spare1"); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < base.NumGates(); id++ {
		g := base.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = mapping[f]
		}
		nid, err := n.AddGate(g.Type, fanin...)
		if err != nil {
			t.Fatal(err)
		}
		mapping[id] = nid
	}
	names := base.OutputNames()
	for i, id := range base.Outputs() {
		if err := n.MarkOutput(names[i], mapping[id]); err != nil {
			t.Fatal(err)
		}
	}

	ext, ip, err := IrreduciblePolynomialInferred(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Errorf("extracted %v, want %v", ext.P, p)
	}
	// The dangling pins must not appear in the inferred operands.
	for _, id := range append(append([]int(nil), ip.A...), ip.B...) {
		switch n.NameOf(id) {
		case "scan_en", "spare0", "spare1":
			t.Errorf("dangling pin %s classified as an operand bit", n.NameOf(id))
		}
	}
}

func TestLowOrderPolynomialEdgeCase(t *testing.T) {
	// P = x^6+x^3+1 is irreducible but non-primitive with ord(x) = 9, so
	// x^9 mod P = 1 — an out-field power reducing to a SINGLE term. Named
	// extraction (Theorem 3) is unaffected; the occurrence-counting bit
	// ordering of port inference becomes ambiguous and must report that
	// instead of guessing.
	p := gf2poly.MustParse("x^6+x^3+1")
	if !p.Irreducible() {
		t.Fatal("x^6+x^3+1 should be irreducible")
	}
	n, err := gen.Mastrovito(6, p)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := IrreduciblePolynomial(n, Options{})
	if err != nil {
		t.Fatalf("named extraction must handle non-primitive P: %v", err)
	}
	if !ext.P.Equal(p) {
		t.Errorf("extracted %v", ext.P)
	}

	rw, err := rewrite.Outputs(n, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferPorts(n, rw); err == nil {
		t.Log("note: inference succeeded despite low ord(x) — counting was unambiguous here")
	} else if !errors.Is(err, ErrBadPorts) {
		t.Errorf("ambiguity should surface as ErrBadPorts, got %v", err)
	}
}

// inferOn runs InferPorts on hand-written output expressions over a netlist
// of nIn inputs x0..x{nIn-1} (gate IDs 0..nIn-1); each output is a list of
// monomials, each monomial a list of variable IDs.
func inferOn(t *testing.T, nIn int, outs ...[][]int) (*InferredPorts, error) {
	t.Helper()
	n := netlist.New("hand")
	for i := 0; i < nIn; i++ {
		if _, err := n.AddInput(fmt.Sprintf("x%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Gate nIn is internal: an expression over it is not over the inputs.
	if _, err := n.AddGate(netlist.And, 0, 1); err != nil {
		t.Fatal(err)
	}
	rw := &rewrite.Result{}
	for _, monos := range outs {
		e := anf.NewPoly()
		for _, vs := range monos {
			vars := make([]anf.Var, len(vs))
			for i, v := range vs {
				vars[i] = anf.Var(v)
			}
			e.Toggle(anf.NewMono(vars...))
		}
		rw.Bits = append(rw.Bits, rewrite.BitResult{Expr: e})
	}
	return InferPorts(n, rw)
}

// TestInferPortsErrorMessages pins every rejection InferPorts can give,
// sentinel and message, on hand-written expressions: x0,x1 play a_0,a_1 and
// x2,x3 play b_0,b_1 wherever the case is multiplier-shaped.
func TestInferPortsErrorMessages(t *testing.T) {
	for _, tc := range []struct {
		name string
		nIn  int
		outs [][][]int
		want error
		msg  string
	}{
		{"too few inputs", 3, [][][]int{{{0, 1}}, {{1, 2}}}, ErrBadPorts,
			"extract: cannot identify multiplier operand ports: 3 inputs for 2 outputs (need at least 2m)"},
		{"linear monomial", 4, [][][]int{{{0, 2}, {1}}, {{1, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: output 0 has a degree-1 monomial; multiplier ANF monomials are a_i·b_j"},
		{"lowest-degree bad monomial reported", 4, [][][]int{{{0, 2}}, {{0, 1, 2}, {1}, {3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: output 1 has a degree-1 monomial; multiplier ANF monomials are a_i·b_j"},
		{"constant term", 4, [][][]int{{{0, 2}, {}}, {{1, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: output 0 has a degree-0 monomial; multiplier ANF monomials are a_i·b_j"},
		{"too few participating inputs", 4, [][][]int{{{0, 2}}, {{0, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: 3 inputs appear in the output expressions, want exactly 4"},
		{"not bipartite", 4, [][][]int{{{0, 1}, {1, 2}}, {{0, 2}, {2, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: monomial graph is not bipartite"},
		{"disconnected", 4, [][][]int{{{0, 1}}, {{2, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: monomial graph is disconnected (2 of 4 inputs reached)"},
		{"lopsided split", 4, [][][]int{{{0, 1}, {0, 2}}, {{0, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: operand split is 1/3, want 2/2"},
		{"ambiguous order", 4, [][][]int{{{0, 2}, {1, 3}}, {{0, 3}, {1, 2}}}, ErrBadPorts,
			"extract: cannot identify multiplier operand ports: ambiguous bit order (multi-count 0 at rank 1; is P(x) of unusually low order?)"},
		{"missing a_0·b_k", 4, [][][]int{{{0, 2}, {1, 3}}, {{1, 2}, {1, 3}}}, ErrBadPorts,
			"extract: cannot identify multiplier operand ports: a_0·b_1 appears in 0 outputs, want 1"},
		{"internal signal", 4, [][][]int{{{0, 2}, {1, 3}}, {{3, 4}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: output 1 has a monomial over signal 4, which is not a primary input"},
		{"unknown signal", 4, [][][]int{{{0, 2}, {1, 9}}, {{1, 3}}}, ErrNotMultiplier,
			"extract: netlist does not look like a GF(2^m) multiplier: output 0 has a monomial over signal 9, which is not a primary input"},
		{"output claimed twice", 4, [][][]int{{{0, 2}, {0, 3}, {1, 3}}, {{1, 2}, {1, 3}}}, ErrBadPorts,
			"extract: cannot identify multiplier operand ports: output 0 claimed by two bit positions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := inferOn(t, tc.nIn, tc.outs...)
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if err.Error() != tc.msg {
				t.Errorf("message\n got %q\nwant %q", err.Error(), tc.msg)
			}
		})
	}
}

// TestInferPortsRecoversScrambledMapping checks that inference returns
// exactly the planted mapping — operand bits, their order and the output
// order, up to the immaterial A/B swap — on scrambled designs, with and
// without dangling pins among the inputs.
func TestInferPortsRecoversScrambledMapping(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     int
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{
		{"mastrovito8", 8, gen.Mastrovito},
		{"montgomery8", 8, gen.Montgomery},
		{"matrix16", 16, gen.MastrovitoMatrix},
	} {
		p, err := polytab.Default(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		base, err := tc.build(tc.m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, dangling := range []bool{false, true} {
			n, toN := base, identity(base.NumGates())
			if dangling {
				n, toN = withDanglingInputs(t, base)
			}
			for seed := int64(0); seed < 3; seed++ {
				s, toS, outPos := scrambleMap(t, n, seed)
				rw, err := rewrite.Outputs(s, rewrite.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ip, err := InferPorts(s, rw)
				if err != nil {
					t.Fatalf("%s dangling=%v seed %d: %v", tc.name, dangling, seed, err)
				}
				ins := base.Inputs()
				wantA, wantB := make([]int, tc.m), make([]int, tc.m)
				for i := 0; i < tc.m; i++ {
					wantA[i], wantB[i] = toS[toN[ins[i]]], toS[toN[ins[tc.m+i]]]
				}
				if !(slices.Equal(ip.A, wantA) && slices.Equal(ip.B, wantB) ||
					slices.Equal(ip.A, wantB) && slices.Equal(ip.B, wantA)) {
					t.Errorf("%s dangling=%v seed %d: inferred A=%v B=%v, want %v/%v (either order)",
						tc.name, dangling, seed, ip.A, ip.B, wantA, wantB)
				}
				if !slices.Equal(ip.OutputOrder, outPos) {
					t.Errorf("%s dangling=%v seed %d: output order %v, want %v",
						tc.name, dangling, seed, ip.OutputOrder, outPos)
				}
			}
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// withDanglingInputs rebuilds n with unused pins before, between and after
// its inputs, returning the new netlist and every old gate's new ID.
func withDanglingInputs(t *testing.T, n *netlist.Netlist) (*netlist.Netlist, []int) {
	t.Helper()
	out := netlist.New(n.Name + "_dangling")
	mapping := make([]int, n.NumGates())
	pin := func(name string) {
		if _, err := out.AddInput(name); err != nil {
			t.Fatal(err)
		}
	}
	pin("scan_en")
	ins := n.Inputs()
	for i, id := range ins {
		nid, err := out.AddInput(n.NameOf(id))
		if err != nil {
			t.Fatal(err)
		}
		mapping[id] = nid
		if i == len(ins)/2-1 {
			pin("spare0")
		}
	}
	pin("spare1")
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = mapping[f]
		}
		var nid int
		var err error
		if g.Type == netlist.Lut {
			nid, err = out.AddLut(g.Table, fanin...)
		} else {
			nid, err = out.AddGate(g.Type, fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
		mapping[id] = nid
	}
	names := n.OutputNames()
	for i, id := range n.Outputs() {
		if err := out.MarkOutput(names[i], mapping[id]); err != nil {
			t.Fatal(err)
		}
	}
	return out, mapping
}
