// Package netlist models combinational gate-level circuits: the input
// representation the paper's reverse-engineering technique operates on.
//
// A Netlist is a DAG of gates. Gates are created in topological order
// (every fanin must already exist), which matches how generators and parsers
// build circuits and makes traversal orders trivial and cycle-free by
// construction. The package provides:
//
//   - the gate library used by the paper's experiments: basic gates
//     (AND/OR/XOR/INV/...) plus complex standard cells (AOI/OAI) and
//     arbitrary truth-table LUT nodes from synthesis/technology mapping;
//   - algebraic gate models per Eq. (1) of the paper, derived uniformly from
//     truth tables via the Möbius transform (package anf);
//   - per-output transitive-fanin cone extraction (the basis of the
//     parallel, per-output-bit rewriting of Theorem 2);
//   - 64-way bit-parallel simulation for fast randomized cross-checks;
//   - text I/O in an equation format (eqn.go) and a BLIF subset (blif.go).
package netlist

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"github.com/galoisfield/gfre/internal/anf"
)

// GateType enumerates the supported cell functions.
type GateType uint8

// Gate types. Fanin arity is fixed per type except for Lut.
const (
	Input GateType = iota // primary input; no fanin
	Const0
	Const1
	Buf
	Not
	And
	Or
	Xor
	Xnor
	Nand
	Nor
	Aoi21 // !(f0·f1 + f2)
	Oai21 // !((f0+f1)·f2)
	Aoi22 // !(f0·f1 + f2·f3)
	Oai22 // !((f0+f1)·(f2+f3))
	Mux   // f2 ? f1 : f0 (f2 is the select)
	Lut   // arbitrary truth table over its fanins
)

var gateTypeNames = map[GateType]string{
	Input: "INPUT", Const0: "CONST0", Const1: "CONST1", Buf: "BUF",
	Not: "NOT", And: "AND", Or: "OR", Xor: "XOR", Xnor: "XNOR",
	Nand: "NAND", Nor: "NOR", Aoi21: "AOI21", Oai21: "OAI21",
	Aoi22: "AOI22", Oai22: "OAI22", Mux: "MUX", Lut: "LUT",
}

// String returns the conventional cell name.
func (t GateType) String() string {
	if s, ok := gateTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Arity returns the required fanin count, or -1 for variable arity (Lut).
func (t GateType) Arity() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	case And, Or, Xor, Xnor, Nand, Nor:
		return 2
	case Aoi21, Oai21, Mux:
		return 3
	case Aoi22, Oai22:
		return 4
	case Lut:
		return -1
	}
	return -1
}

// eval computes the gate function on Boolean inputs; the shared definition
// used by both simulation and the ANF model derivation, so the two can never
// disagree.
func (t GateType) eval(in []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		return in[0] && in[1]
	case Or:
		return in[0] || in[1]
	case Xor:
		return in[0] != in[1]
	case Xnor:
		return in[0] == in[1]
	case Nand:
		return !(in[0] && in[1])
	case Nor:
		return !(in[0] || in[1])
	case Aoi21:
		return !(in[0] && in[1] || in[2])
	case Oai21:
		return !((in[0] || in[1]) && in[2])
	case Aoi22:
		return !(in[0] && in[1] || in[2] && in[3])
	case Oai22:
		return !((in[0] || in[1]) && (in[2] || in[3]))
	case Mux:
		if in[2] {
			return in[1]
		}
		return in[0]
	}
	panic(fmt.Sprintf("netlist: eval on %v", t))
}

// Gate is one node of the circuit DAG.
type Gate struct {
	Type  GateType
	Fanin []int  // IDs of driver gates; all smaller than this gate's ID
	Table []bool // truth table for Lut gates (len = 1<<len(Fanin))
}

// Eval computes the gate's cell function on the given fanin values (one per
// Fanin entry, in order; bit i of a LUT row index is fanin i). It shares the
// per-type eval used by simulation and GateANF, so every consumer of a
// gate's Boolean semantics — including static analyzers building local truth
// tables — agrees with the simulator by construction.
func (g Gate) Eval(in []bool) bool {
	if g.Type == Lut {
		row := 0
		for i, v := range in {
			if v {
				row |= 1 << uint(i)
			}
		}
		return g.Table[row]
	}
	return g.Type.eval(in)
}

// Netlist is a combinational circuit. Build with New and the Add* methods;
// gates are identified by dense integer IDs in topological order.
type Netlist struct {
	Name string

	gates  []Gate
	names  []string // signal name per gate ("" if anonymous)
	byName map[string]int

	inputs      []int // gate IDs of primary inputs, in port order
	outputs     []int // gate IDs driving primary outputs, in port order
	outputNames []string

	// coneSizes memoizes ConeSizes; every mutator resets it. The mutex lets
	// concurrent readers (rewrite workers, shard leases) share one build.
	coneMu    sync.Mutex
	coneSizes []int
}

// New returns an empty netlist with the given model name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]int)}
}

// NumGates returns the total number of nodes including primary inputs and
// constants.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumEquations returns the number of logic equations — every node except
// primary inputs. This is the "#eqns" column of Tables I and II and equals
// the number of rewriting iterations needed to process the whole netlist.
func (n *Netlist) NumEquations() int {
	c := 0
	for _, g := range n.gates {
		if g.Type != Input {
			c++
		}
	}
	return c
}

// Gate returns the gate with the given ID.
func (n *Netlist) Gate(id int) Gate { return n.gates[id] }

// NameOf returns the signal name of gate id, or a synthesized "n<id>" if the
// gate is anonymous.
func (n *Netlist) NameOf(id int) string {
	if s := n.names[id]; s != "" {
		return s
	}
	return "n" + strconv.Itoa(id)
}

// Lookup resolves a signal name to its gate ID.
func (n *Netlist) Lookup(name string) (int, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// Inputs returns the primary input gate IDs in port order.
func (n *Netlist) Inputs() []int { return append([]int(nil), n.inputs...) }

// Outputs returns the gate IDs driving each primary output, in port order.
func (n *Netlist) Outputs() []int { return append([]int(nil), n.outputs...) }

// OutputNames returns the primary output names in port order.
func (n *Netlist) OutputNames() []string { return append([]string(nil), n.outputNames...) }

func (n *Netlist) setName(id int, name string) error {
	if name == "" {
		return nil
	}
	if old, ok := n.byName[name]; ok && old != id {
		return fmt.Errorf("netlist: duplicate signal name %q", name)
	}
	n.byName[name] = id
	n.names[id] = name
	return nil
}

// AddInput appends a primary input with the given name and returns its ID.
func (n *Netlist) AddInput(name string) (int, error) {
	id := len(n.gates)
	n.gates = append(n.gates, Gate{Type: Input})
	n.names = append(n.names, "")
	if err := n.setName(id, name); err != nil {
		n.gates = n.gates[:id]
		n.names = n.names[:id]
		return 0, err
	}
	n.inputs = append(n.inputs, id)
	n.coneSizes = nil
	return id, nil
}

// AddGate appends a gate of the given type and returns its ID. Fanins must
// refer to existing gates, which keeps the gate list topologically ordered
// and the circuit acyclic by construction.
func (n *Netlist) AddGate(t GateType, fanin ...int) (int, error) {
	if t == Input {
		return 0, fmt.Errorf("netlist: use AddInput for primary inputs")
	}
	if t == Lut {
		return 0, fmt.Errorf("netlist: use AddLut for truth-table gates")
	}
	if a := t.Arity(); len(fanin) != a {
		return 0, fmt.Errorf("netlist: %v needs %d fanins, got %d", t, a, len(fanin))
	}
	return n.addChecked(Gate{Type: t, Fanin: append([]int(nil), fanin...)})
}

// AddLut appends a truth-table gate. table row i holds the output value when
// fanin j carries bit j of i.
func (n *Netlist) AddLut(table []bool, fanin ...int) (int, error) {
	if len(fanin) == 0 || len(fanin) > 16 {
		return 0, fmt.Errorf("netlist: LUT with %d inputs unsupported", len(fanin))
	}
	if len(table) != 1<<uint(len(fanin)) {
		return 0, fmt.Errorf("netlist: LUT table has %d rows for %d inputs", len(table), len(fanin))
	}
	return n.addChecked(Gate{
		Type:  Lut,
		Fanin: append([]int(nil), fanin...),
		Table: append([]bool(nil), table...),
	})
}

func (n *Netlist) addChecked(g Gate) (int, error) {
	id := len(n.gates)
	for _, f := range g.Fanin {
		if f < 0 || f >= id {
			return 0, fmt.Errorf("netlist: gate %d fanin %d out of range (forward reference or negative)", id, f)
		}
	}
	n.gates = append(n.gates, g)
	n.names = append(n.names, "")
	n.coneSizes = nil
	return id, nil
}

// SetSignalName attaches a name to an existing gate.
func (n *Netlist) SetSignalName(id int, name string) error {
	if id < 0 || id >= len(n.gates) {
		return fmt.Errorf("netlist: no gate %d", id)
	}
	return n.setName(id, name)
}

// MarkOutput declares that gate id drives the next primary output, with the
// given port name.
func (n *Netlist) MarkOutput(name string, id int) error {
	if id < 0 || id >= len(n.gates) {
		return fmt.Errorf("netlist: no gate %d", id)
	}
	n.outputs = append(n.outputs, id)
	n.outputNames = append(n.outputNames, name)
	n.coneSizes = nil
	return nil
}

// Cone returns the gate IDs in the transitive fanin of root (root included),
// in ascending — hence topological — order. Per Theorem 2 of the paper,
// backward rewriting of one output bit only ever touches its cone.
func (n *Netlist) Cone(root int) []int {
	count := 0
	seen, _ := n.walkCone(root, func(int) (bool, error) {
		count++
		return true, nil
	})
	out := make([]int, 0, count)
	for w, word := range seen {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			out = append(out, base+b)
		}
	}
	return out
}

// WalkCone visits root and then, in descending ID order, every gate that a
// visited gate expands into: a visit returning expand=true marks the gate's
// fanins for visiting, expand=false leaves them unmarked (they are still
// visited if another expanded gate reads them). Expanding every gate walks
// the whole cone in reverse topological order; backward rewriting expands
// only the gates it substituted, so fanins whose occurrences cancelled — and
// everything only they reach — are never touched. The first visit error
// stops the walk and is returned.
//
// Membership is tracked in a bitset over the dense ID space. Fanins are
// always smaller than their readers, so only IDs ≤ root need representing,
// and a single descending sweep settles the walk: by the time it reaches
// gate id, every reader of id has already been visited, so id's mark is
// final. The sweep walks the gate table sequentially instead of in DFS
// stack order — on Montgomery netlists, whose per-bit cones approach the
// whole ~m²-gate netlist, that locality is worth ~10x over an explicit-stack
// DFS (see BenchmarkConeSort). Zero words skip 64 unmarked IDs at a time, so
// small walks under a large root stay cheap. O(root/64 + visited + edges).
func (n *Netlist) WalkCone(root int, visit func(id int) (expand bool, err error)) error {
	_, err := n.walkCone(root, visit)
	return err
}

// walkCone is WalkCone returning the final membership bitset.
func (n *Netlist) walkCone(root int, visit func(id int) (expand bool, err error)) ([]uint64, error) {
	seen := make([]uint64, root/64+1)
	seen[root>>6] |= 1 << (uint(root) & 63)
	for w := len(seen) - 1; w >= 0; w-- {
		rem := seen[w]
		for rem != 0 {
			b := 63 - bits.LeadingZeros64(rem)
			rem &^= 1 << uint(b)
			id := w<<6 + b
			expand, err := visit(id)
			if err != nil {
				return seen, err
			}
			if !expand {
				continue
			}
			for _, f := range n.gates[id].Fanin {
				fw, fb := f>>6, uint64(1)<<(uint(f)&63)
				if seen[fw]&fb == 0 {
					seen[fw] |= fb
					if fw == w {
						// A fanin below b in the current word: fold it into
						// the in-progress descent so it is not skipped.
						rem |= fb
					}
				}
			}
		}
	}
	return seen, nil
}

// ConeSizes returns, per primary output in port order, the number of gates
// in its transitive fanin (root included) — len(n.Cone(root)) for every
// output at once, from one cone index instead of one sweep per output. The
// sizes are memoized on the netlist until the next mutation; the caller
// gets its own copy.
func (n *Netlist) ConeSizes() []int {
	n.coneMu.Lock()
	defer n.coneMu.Unlock()
	if n.coneSizes == nil {
		n.coneSizes = n.countCones()
	}
	return slices.Clone(n.coneSizes)
}

// countCones computes ConeSizes as column counts of the membership rows.
// The counts are kept bit-sliced — planes[k] holds bit k of all 64 columns'
// running counts — so adding a row is a ripple-carry increment of at most
// log2(gates) word operations (two on average) instead of 64 per-bit adds.
func (n *Netlist) countCones() []int {
	sizes := make([]int, len(n.outputs))
	n.ConeMembership(func(base int, rows []uint64) {
		var planes [64]uint64
		for _, r := range rows {
			for k := 0; r != 0; k++ {
				planes[k], r = planes[k]^r, planes[k]&r
			}
		}
		for j := base; j < len(sizes) && j < base+64; j++ {
			for k, p := range planes {
				sizes[j] += int(p>>uint(j-base)&1) << uint(k)
			}
		}
	})
	return sizes
}

// ConeMembership is the cone index: which output cones hold each gate. It
// calls visit once per block of up to 64 primary outputs, in port order;
// rows[id] has bit j set iff gate id lies in the transitive fanin of output
// base+j. Each block is one descending sweep that ORs a gate's row into its
// fanins' rows — every reader of a gate precedes it, so the row is final
// when the sweep reaches it. rows is reused across blocks and must not be
// retained; one word per gate bounds the index's memory regardless of m.
func (n *Netlist) ConeMembership(visit func(base int, rows []uint64)) {
	rows := make([]uint64, len(n.gates))
	for base := 0; base < len(n.outputs); base += 64 {
		clear(rows)
		top := 0
		for j, root := range n.outputs[base:min(base+64, len(n.outputs))] {
			rows[root] |= 1 << uint(j)
			top = max(top, root)
		}
		for id := top; id >= 0; id-- {
			if r := rows[id]; r != 0 {
				for _, f := range n.gates[id].Fanin {
					rows[f] |= r
				}
			}
		}
		visit(base, rows)
	}
}

// Levels returns the logic depth of each gate (inputs and constants at 0)
// and the maximum depth of the circuit.
func (n *Netlist) Levels() (levels []int, depth int) {
	levels = make([]int, len(n.gates))
	for id, g := range n.gates {
		l := 0
		for _, f := range g.Fanin {
			if levels[f]+1 > l {
				l = levels[f] + 1
			}
		}
		levels[id] = l
		if l > depth {
			depth = l
		}
	}
	return levels, depth
}

// Stats summarizes the netlist composition.
type Stats struct {
	Gates     int // all nodes
	Inputs    int
	Outputs   int
	Equations int // non-input nodes (#eqns of Tables I/II)
	Depth     int
	ByType    map[GateType]int
}

// Stats computes composition statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Gates:     len(n.gates),
		Inputs:    len(n.inputs),
		Outputs:   len(n.outputs),
		Equations: n.NumEquations(),
		ByType:    make(map[GateType]int),
	}
	for _, g := range n.gates {
		s.ByType[g.Type]++
	}
	_, s.Depth = n.Levels()
	return s
}

// GateANF returns the algebraic model of gate id as a polynomial over the
// variables assigned to its fanins by varOf — the per-gate expressions of
// Eq. (1) in the paper, extended to complex cells. All models are derived
// from the same eval used by simulation (via the Möbius transform for LUTs,
// hand-expanded for fixed cells), so the algebraic and Boolean semantics
// coincide by construction.
func (n *Netlist) GateANF(id int, varOf func(int) anf.Var) (anf.Poly, error) {
	g := n.gates[id]
	v := func(i int) anf.Var { return varOf(g.Fanin[i]) }
	mono := anf.NewMono
	one := anf.MonoOne
	switch g.Type {
	case Input:
		return anf.Poly{}, fmt.Errorf("netlist: gate %d is a primary input", id)
	case Const0:
		return anf.Constant(false), nil
	case Const1:
		return anf.Constant(true), nil
	case Buf:
		return anf.FromMonos(mono(v(0))), nil
	case Not:
		return anf.FromMonos(one, mono(v(0))), nil
	case And:
		return anf.FromMonos(mono(v(0), v(1))), nil
	case Or:
		return anf.FromMonos(mono(v(0)), mono(v(1)), mono(v(0), v(1))), nil
	case Xor:
		return anf.FromMonos(mono(v(0)), mono(v(1))), nil
	case Xnor:
		return anf.FromMonos(one, mono(v(0)), mono(v(1))), nil
	case Nand:
		return anf.FromMonos(one, mono(v(0), v(1))), nil
	case Nor:
		return anf.FromMonos(one, mono(v(0)), mono(v(1)), mono(v(0), v(1))), nil
	case Lut:
		vars := make([]anf.Var, len(g.Fanin))
		for i, f := range g.Fanin {
			vars[i] = varOf(f)
		}
		return anf.FromTruthTable(vars, g.Table)
	default:
		// Complex cells: derive from the shared eval via truth table.
		k := len(g.Fanin)
		vars := make([]anf.Var, k)
		for i, f := range g.Fanin {
			vars[i] = varOf(f)
		}
		table := make([]bool, 1<<uint(k))
		in := make([]bool, k)
		for row := range table {
			for i := 0; i < k; i++ {
				in[i] = row&(1<<uint(i)) != 0
			}
			table[row] = g.Type.eval(in)
		}
		return anf.FromTruthTable(vars, table)
	}
}
