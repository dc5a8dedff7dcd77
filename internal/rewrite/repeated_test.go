package rewrite

import (
	"testing"

	"github.com/galoisfield/gfre/internal/netlist"
)

// repeatedFaninNetlist wires one output per repeated-fanin pattern over
// internal signals p, q, r, s of a0, a1, b0, b1, so the repeated variable is
// itself rewritten afterwards and its model's terms meet other terms.
func repeatedFaninNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("repeated")
	in := map[string]int{}
	for _, name := range []string{"a0", "a1", "b0", "b1"} {
		in[name], _ = n.AddInput(name)
	}
	gate := func(typ netlist.GateType, fanin ...int) int {
		id, err := n.AddGate(typ, fanin...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	p := gate(netlist.And, in["a0"], in["b1"])
	q := gate(netlist.Xor, in["a1"], in["b0"])
	r := gate(netlist.Or, p, q)
	s := gate(netlist.Nand, in["a0"], in["a1"])
	lut, err := n.AddLut([]bool{true, false, false, true, true, true, false, false}, p, q, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name string
		id   int
	}{
		{"xor_pp", gate(netlist.Xor, p, p)},
		{"and_qq", gate(netlist.And, q, q)},
		{"nor_rr", gate(netlist.Nor, r, r)},
		{"xnor_ss", gate(netlist.Xnor, s, s)},
		{"mux_ppq", gate(netlist.Mux, p, p, q)},
		{"mux_pqp", gate(netlist.Mux, p, q, p)},
		{"aoi22_pqpq", gate(netlist.Aoi22, p, q, p, q)},
		{"oai21_rrs", gate(netlist.Oai21, r, r, s)},
		{"aoi21_pqp", gate(netlist.Aoi21, p, q, p)},
		{"oai22_qsqr", gate(netlist.Oai22, q, s, q, r)},
		{"lut_pqp", lut},
		{"xor_mix", gate(netlist.Xor, gate(netlist.And, q, q), gate(netlist.Nor, q, p))},
	} {
		if err := n.MarkOutput(o.name, o.id); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestRewriteRepeatedFanins rewrites gates with repeated fanins and
// compares every count and expression with the values recorded when gate
// models were built as polynomials.
func TestRewriteRepeatedFanins(t *testing.T) {
	want := map[string]struct {
		subst, peak, cancelled int
		expr                   string
	}{
		"xor_pp":     {1, 1, 0, "0"},
		"and_qq":     {2, 2, 0, "v1+v2"},
		"nor_rr":     {4, 6, 0, "1+v1+v2+v0·v3+v0·v1·v3+v0·v2·v3"},
		"xnor_ss":    {1, 1, 0, "1"},
		"mux_ppq":    {2, 1, 0, "v0·v3"},
		"mux_pqp":    {3, 2, 0, "v0·v1·v3+v0·v2·v3"},
		"aoi22_pqpq": {3, 3, 0, "1+v0·v1·v3+v0·v2·v3"},
		"oai21_rrs":  {5, 9, 2, "1+v1+v2+v0·v1+v0·v3+v0·v1·v2+v0·v1·v3+v0·v2·v3+v0·v1·v2·v3"},
		"aoi21_pqp":  {2, 2, 0, "1+v0·v3"},
		"oai22_qsqr": {5, 7, 10, "1+v1+v2+v0·v3+v0·v1·v3+v0·v2·v3+v0·v1·v2·v3"},
		"lut_pqp":    {2, 3, 0, "1+v1+v2"},
		"xor_mix":    {5, 5, 2, "1+v0·v3+v0·v1·v3+v0·v2·v3"},
	}
	res, err := Outputs(repeatedFaninNetlist(t), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) != len(want) {
		t.Fatalf("%d outputs rewritten, %d recorded", len(res.Bits), len(want))
	}
	for _, br := range res.Bits {
		w, ok := want[br.Name]
		got := [3]int{br.Substitutions, br.PeakTerms, br.Cancelled}
		if !ok || got != [3]int{w.subst, w.peak, w.cancelled} || br.Expr.String() != w.expr {
			t.Errorf("%q: {%d, %d, %d, %q}, want %+v", br.Name, got[0], got[1], got[2], br.Expr.String(), w)
		}
	}
}
