package sem

import "github.com/galoisfield/gfre/internal/netlist"

// Facts is one finished sweep's per-gate lattice values, which a Result no
// longer keeps: the tests that check the sweep gate by gate read them here.
type Facts = analyzer

// SweepFacts runs the semantic sweep of n on working state of its own, so
// the facts stay valid after later sweeps.
func SweepFacts(n *netlist.Netlist, opts Options) *Facts {
	a := new(analyzer)
	a.sweep(n, opts, nil)
	return a
}

// Const reports whether gate id is provably constant, and its value.
func (a *analyzer) Const(id int) (value bool, ok bool) {
	f := &a.facts[id]
	return f.konst == 1, f.konst >= 0
}

// AlgebraicConst reports whether gate id is provably constant for
// algebraic reasons rather than by constant propagation.
func (a *analyzer) AlgebraicConst(id int) bool {
	f := &a.facts[id]
	return f.konst >= 0 && !f.syn()
}

// Degrees returns gate id's ANF degree upper bounds in operand a, in
// operand b, in key inputs, and total.
func (a *analyzer) Degrees(id int) (degA, degB, degKey, degTot int) {
	da, db, dk, dt := a.facts[id].degs()
	return int(da), int(db), int(dk), int(dt)
}

// Exact reports whether gate id was settled in the exact truth-table domain.
func (a *analyzer) Exact(id int) bool { return a.facts[id].exact() }

// Unate reports whether gate id is monotone/anti-monotone in every support
// input.
func (a *analyzer) Unate(id int) bool { return a.facts[id].unate() }

// SupportInputs returns the gate IDs of primary inputs in gate id's support.
func (a *analyzer) SupportInputs(id int) []int {
	pos := a.suppPositions(id)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = a.inputs[p]
	}
	return out
}
