package netlist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
)

// faninCase is one gate of the repeated-fanin sweep: fanin slot i reads
// input pick[i] of k inputs created in ID order, so every assignment of
// slots to at most k distinct inputs, in every order, is one case.
type faninCase struct {
	typ   GateType
	table []bool // LUT truth table; nil for fixed cells
	pick  []int
}

// repeatedFaninCases enumerates all k^k slot assignments for every fixed
// cell type and for seeded random LUTs of 1-4 inputs.
func repeatedFaninCases() []faninCase {
	var cases []faninCase
	add := func(typ GateType, k int, table []bool) {
		total := 1
		for range k {
			total *= k
		}
		for c := range total {
			pick := make([]int, k)
			for i, x := 0, c; i < k; i, x = i+1, x/k {
				pick[i] = x % k
			}
			cases = append(cases, faninCase{typ, table, pick})
		}
	}
	for typ := Const0; typ < Lut; typ++ {
		add(typ, typ.Arity(), nil)
	}
	rng := rand.New(rand.NewSource(14))
	for k := 1; k <= 4; k++ {
		for range 2 {
			table := make([]bool, 1<<k)
			for i := range table {
				table[i] = rng.Intn(2) == 1
			}
			add(Lut, k, table)
		}
	}
	return cases
}

// build returns a netlist holding the case's gate and that gate's ID.
func (c faninCase) build(t *testing.T) (*Netlist, int) {
	t.Helper()
	n := New("fanin")
	ids := make([]int, len(c.pick))
	for i := range ids {
		ids[i], _ = n.AddInput(fmt.Sprintf("x%d", i))
	}
	fanin := make([]int, len(c.pick))
	for i, p := range c.pick {
		fanin[i] = ids[p]
	}
	var id int
	var err error
	if c.typ == Lut {
		id, err = n.AddLut(c.table, fanin...)
	} else {
		id, err = n.AddGate(c.typ, fanin...)
	}
	if err != nil {
		t.Fatalf("%v%v: %v", c.typ, c.pick, err)
	}
	return n, id
}

// gateANFLenDigests pins, per gate type, the sequence of term counts that
// GateANF produced for repeatedFaninCases before gate models became term
// lists: the first 16 hex digits of the SHA-256 of the counts, one line per
// case.
var gateANFLenDigests = map[string]string{
	"AND":    "a0db8280e47040bf",
	"AOI21":  "e82e15bd4649360d",
	"AOI22":  "a364b2ecee7a165b",
	"BUF":    "4355a46b19d348dc",
	"CONST0": "9a271f2a916b0b6e",
	"CONST1": "4355a46b19d348dc",
	"LUT":    "4f74cb9ef0aaeb8d",
	"MUX":    "db727eaacc5b6bd8",
	"NAND":   "057860c61b4167f5",
	"NOR":    "ca9c5944187f39e2",
	"NOT":    "53c234e5e8472b6a",
	"OAI21":  "dc01cc4a026cc644",
	"OAI22":  "12451d3f620c12fa",
	"OR":     "c4959ebc3f1272f9",
	"XNOR":   "c4959ebc3f1272f9",
	"XOR":    "149c08db477647bf",
}

// TestGateTermsExactOnRepeatedFanins: for every gate type and every way of
// wiring its fanin slots to at most k distinct inputs, the written terms are
// the exact ANF of Gate.Eval — computed independently by the Möbius
// transform over the distinct inputs — with distinct masks over the
// ascending distinct fanins, and the term count matches the polynomial
// model the rewriting loop used to build.
func TestGateTermsExactOnRepeatedFanins(t *testing.T) {
	counts := map[string][]byte{}
	var e anf.Terms
	for _, c := range repeatedFaninCases() {
		n, id := c.build(t)
		g := n.Gate(id)
		if err := n.GateTerms(id, &e); err != nil {
			t.Fatalf("%v%v: %v", c.typ, c.pick, err)
		}
		// The distinct fanins, ascending, and the gate's function over them.
		var distinct []anf.Var
		for _, f := range g.Fanin {
			distinct = append(distinct, anf.Var(f))
		}
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		table := make([]bool, 1<<len(distinct))
		for row := range table {
			in := make([]bool, len(g.Fanin))
			for i, f := range g.Fanin {
				in[i] = row>>slices.Index(distinct, anf.Var(f))&1 == 1
			}
			table[row] = g.Eval(in)
		}
		want, err := anf.FromTruthTable(distinct, table)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(e.Vars, distinct) {
			t.Errorf("%v%v: vars %v, want the distinct fanins %v", c.typ, c.pick, e.Vars, distinct)
		}
		if got := e.Poly(); !got.Equal(want) || e.Len() != want.Len() {
			t.Errorf("%v%v: terms %v (%d), want %v (%d)", c.typ, c.pick, got, e.Len(), want, want.Len())
		}
		masks := slices.Clone(e.Masks)
		slices.Sort(masks)
		if len(slices.Compact(masks)) != e.Len() {
			t.Errorf("%v%v: repeated masks %b", c.typ, c.pick, e.Masks)
		}
		if p, err := n.GateANF(id); err != nil || !p.Equal(want) {
			t.Errorf("%v%v: GateANF = %v, %v; want %v", c.typ, c.pick, p, err, want)
		}
		counts[c.typ.String()] = fmt.Appendf(counts[c.typ.String()], "%d\n", e.Len())
	}
	for typ, seq := range counts {
		sum := sha256.Sum256(seq)
		if got, want := hex.EncodeToString(sum[:8]), gateANFLenDigests[typ]; got != want {
			t.Errorf("%s: term-count digest %s, recorded %q", typ, got, want)
		}
	}
	if len(counts) != len(gateANFLenDigests) {
		t.Errorf("%d gate types swept, %d digests recorded", len(counts), len(gateANFLenDigests))
	}
}
