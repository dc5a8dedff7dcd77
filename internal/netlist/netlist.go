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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

	// gates holds every gate in 12 bytes (see gate), so the passes that
	// stream the gate array — the semantic and context sweeps, the
	// canonical render, the cone index — read a fifth of what whole Gate
	// values would cost them; Gate assembles the value.
	gates []gate
	names []string // signal name per gate ("" if anonymous)
	index nameIndex
	// fanins is the arena every gate's fanin list lives in, in gate order;
	// Gate.Fanin is a capacity-capped slice of it. Growing the arena
	// leaves the lists handed out earlier on the old copy, which still
	// holds them.
	fanins []int
	// tables holds the truth tables of the LUT gates (gate.lut).
	tables [][]bool
	// shadowed is a bitset over gate IDs: bit id is set once another gate
	// or an output port carries "n<id>", the name NameOf synthesizes for an
	// anonymous gate id. Such a name registered before gate id exists waits
	// in shadowLater until the gate is added.
	shadowed    []uint64
	shadowLater map[int]bool

	inputs      []int // gate IDs of primary inputs, in port order
	outputs     []int // gate IDs driving primary outputs, in port order
	outputNames []string
	// portText holds the bytes of every port name: the inputs' names and
	// outputNames. Port names outlive the netlist, in results, event
	// journals, checkpoints and the semantic-analysis cache, and one that
	// is a substring of a parsed input would keep all of it alive there.
	portText strings.Builder

	// coneSizes and coneReach memoize ConeSizes and Reachable, both read
	// off one cone index build; every mutator resets coneSizes, which
	// marks both stale. The mutex lets concurrent readers (rewrite workers,
	// shard leases, preflight) share one build.
	coneMu    sync.Mutex
	coneSizes []int
	coneReach []uint64
	// levels and depth memoize Levels under levelMu: every mutator resets
	// levels along with coneSizes.
	levelMu sync.Mutex
	levels  []int32
	depth   int

	// digest memoizes Digest for the model name digestName it was computed
	// under: every mutator resets it, and a renamed netlist recomputes it.
	digestMu   sync.Mutex
	digest     string
	digestName string
}

// New returns an empty netlist with the given model name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// gate is a gate as the netlist stores it: its type, and its fanin list
// and LUT truth table as positions in the netlist's arenas.
type gate struct {
	off  uint32 // first fanin in the fanins arena
	lut  uint32 // 1 + index of the truth table in tables; 0 for other cells
	typ  GateType
	nfan uint8 // fanin count; at most maxLutInputs
}

// reserve presizes the netlist for gates more gates, each named and with
// two fanins on average.
func (n *Netlist) reserve(gates int) {
	n.gates = slices.Grow(n.gates, gates)
	n.names = slices.Grow(n.names, gates)
	n.index.reserve(gates)
	n.fanins = slices.Grow(n.fanins, 2*gates)
}

// fanin returns the fanin list of gate id.
func (n *Netlist) fanin(id int) []int {
	r := n.gates[id]
	end := r.off + uint32(r.nfan)
	return n.fanins[r.off:end:end]
}

// NumGates returns the total number of nodes including primary inputs and
// constants.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumEquations returns the number of logic equations — every node except
// primary inputs. This is the "#eqns" column of Tables I and II and equals
// the number of rewriting iterations needed to process the whole netlist.
func (n *Netlist) NumEquations() int {
	c := 0
	for _, r := range n.gates {
		if r.typ != Input {
			c++
		}
	}
	return c
}

// Cell returns gate id's type and fanin list, as Gate does, without
// building a Gate. The loops that read every gate of a large netlist (the
// canonical render behind Digest, the semantic sweep, the rewriting walk)
// use it: a Gate is too large to live in registers, and building one in
// memory per gate costs those loops a fifth of their time.
func (n *Netlist) Cell(id int) (GateType, []int) {
	return n.gates[id].typ, n.fanin(id)
}

// Gate returns the gate with the given ID.
func (n *Netlist) Gate(id int) Gate {
	r := n.gates[id]
	g := Gate{Type: r.typ}
	if r.nfan > 0 {
		end := r.off + uint32(r.nfan)
		g.Fanin = n.fanins[r.off:end:end]
	}
	if r.lut > 0 {
		g.Table = n.tables[r.lut-1]
	}
	return g
}

// NameOf returns the signal name of gate id. An anonymous gate gets the
// synthesized name "n<id>" or, when another gate or an output port already
// carries that, "n<id>_<j>" with the smallest free j >= 1, so written
// netlists never define a name twice.
func (n *Netlist) NameOf(id int) string {
	if s := n.names[id]; s != "" {
		return s
	}
	s := "n" + strconv.Itoa(id)
	if !n.isShadowed(id) {
		return s
	}
	for j := 1; ; j++ {
		alt := s + "_" + strconv.Itoa(j)
		if _, taken := n.Lookup(alt); !taken {
			return alt
		}
	}
}

// synthesizedID reports whether name is "n<id>", the name NameOf
// synthesizes for an anonymous gate id. Unlike strconv.Atoi, which builds
// an error for every name it rejects, it never allocates.
func synthesizedID(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'n' || name[1] == '0' && len(name) > 2 {
		return 0, false
	}
	id := 0
	for _, c := range []byte(name[1:]) {
		d := int(c - '0')
		if c < '0' || c > '9' || id > (math.MaxInt-d)/10 {
			return 0, false
		}
		id = id*10 + d
	}
	return id, true
}

// shadow records that the synthesized name of gate id is taken.
func (n *Netlist) shadow(id int) {
	if id >= len(n.gates) {
		if n.shadowLater == nil {
			n.shadowLater = map[int]bool{}
		}
		n.shadowLater[id] = true
		return
	}
	for id>>6 >= len(n.shadowed) {
		n.shadowed = append(n.shadowed, 0)
	}
	n.shadowed[id>>6] |= 1 << uint(id&63)
}

func (n *Netlist) isShadowed(id int) bool {
	w := id >> 6
	return w < len(n.shadowed) && n.shadowed[w]>>uint(id&63)&1 == 1
}

// Lookup resolves a signal name to its gate ID.
func (n *Netlist) Lookup(name string) (int, bool) {
	return n.index.lookup(name, n.names)
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
	if !n.index.set(name, id, n.names) {
		return fmt.Errorf("netlist: duplicate signal name %q", name)
	}
	n.names[id] = name
	n.digest = ""
	if k, ok := synthesizedID(name); ok && k != id {
		n.shadow(k)
	}
	return nil
}

// portName returns a copy of name in portText.
func (n *Netlist) portName(name string) string {
	i := n.portText.Len()
	n.portText.WriteString(name)
	return n.portText.String()[i:]
}

// AddInput appends a primary input with the given name and returns its ID.
func (n *Netlist) AddInput(name string) (int, error) {
	id := n.appendGate(Input, nil, nil)
	if err := n.setName(id, n.portName(name)); err != nil {
		n.gates = n.gates[:id]
		n.names = n.names[:id]
		return 0, err
	}
	n.inputs = append(n.inputs, id)
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
	return n.addChecked(t, fanin, nil)
}

// AddLut appends a truth-table gate. table row i holds the output value when
// fanin j carries bit j of i.
func (n *Netlist) AddLut(table []bool, fanin ...int) (int, error) {
	if len(fanin) == 0 || len(fanin) > maxLutInputs {
		return 0, fmt.Errorf("netlist: LUT with %d inputs unsupported", len(fanin))
	}
	if len(table) != 1<<uint(len(fanin)) {
		return 0, fmt.Errorf("netlist: LUT table has %d rows for %d inputs", len(table), len(fanin))
	}
	return n.addChecked(Lut, fanin, append([]bool(nil), table...))
}

// addChecked appends a gate after checking its fanins, copying them into
// the arena.
func (n *Netlist) addChecked(t GateType, fanin []int, table []bool) (int, error) {
	id := len(n.gates)
	for _, f := range fanin {
		if f < 0 || f >= id {
			return 0, fmt.Errorf("netlist: gate %d fanin %d out of range (forward reference or negative)", id, f)
		}
	}
	return n.appendGate(t, fanin, table), nil
}

// appendGate adds an anonymous gate, copying its fanins into the arena,
// and returns its ID.
func (n *Netlist) appendGate(t GateType, fanin []int, table []bool) int {
	id := len(n.gates)
	r := gate{off: uint32(len(n.fanins)), typ: t, nfan: uint8(len(fanin))}
	if len(n.fanins)+len(fanin) > math.MaxUint32 {
		panic("netlist: fanin arena overflow")
	}
	n.fanins = append(n.fanins, fanin...)
	if table != nil {
		n.tables = append(n.tables, table)
		r.lut = uint32(len(n.tables))
	}
	n.gates = append(n.gates, r)
	n.names = append(n.names, "")
	n.coneSizes, n.levels = nil, nil
	n.digest = ""
	if len(n.shadowLater) > 0 && n.shadowLater[id] {
		delete(n.shadowLater, id)
		n.shadow(id)
	}
	return id
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
	if k, ok := synthesizedID(name); ok && k != id {
		n.shadow(k)
	}
	n.outputs = append(n.outputs, id)
	n.outputNames = append(n.outputNames, n.portName(name))
	n.coneSizes, n.levels = nil, nil
	n.digest = ""
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
			for _, f := range n.fanin(id) {
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

// Digest returns the netlist's canonical content hash: the hex SHA-256 of
// its EQN serialization (WriteEQN). Any structural change — a different
// gate, name, or port order — changes it, and so does the model name. It is
// computed once and memoized on the netlist until the next mutation or a
// change of Name, so preflight, checkpointing and the shard scheduler of
// one extraction share one computation; concurrent callers wait for it.
func (n *Netlist) Digest() (string, error) { return n.DigestScan(nil) }

// DigestScan is Digest, calling visit (when not nil) on every gate in ID
// order on the way, with the gate's type and fanins as Cell returns them:
// the walk over the gates that renders the canonical text also serves a
// caller's own forward sweep, so the gate array is read once for both.
// visit sees every gate whether the digest is memoized, computed or fails.
func (n *Netlist) DigestScan(visit func(id int, typ GateType, fanin []int)) (string, error) {
	n.digestMu.Lock()
	defer n.digestMu.Unlock()
	if n.digest != "" && n.digestName == n.Name {
		if visit != nil {
			for id := range n.gates {
				typ, fanin := n.Cell(id)
				visit(id, typ, fanin)
			}
		}
		return n.digest, nil
	}
	h := sha256.New()
	if err := n.writeEQN(h, visit); err != nil {
		return "", err
	}
	digests.Add(1)
	n.digest, n.digestName = hex.EncodeToString(h.Sum(nil)), n.Name
	return n.digest, nil
}

// digests counts Digest computations, memo hits excluded.
var digests atomic.Int64

// DigestsComputed reports how many canonical digests this process has
// computed; memoized Digest calls do not count. It lets tests pin one
// digest per extraction.
func DigestsComputed() int64 { return digests.Load() }

// ConeSizes returns, per primary output in port order, the number of gates
// in its transitive fanin (root included) — len(n.Cone(root)) for every
// output at once, from one cone index instead of one sweep per output. The
// sizes are memoized on the netlist until the next mutation; the caller
// gets its own copy.
func (n *Netlist) ConeSizes() []int {
	n.coneMu.Lock()
	defer n.coneMu.Unlock()
	n.indexCones()
	return slices.Clone(n.coneSizes)
}

// Reachable returns a bitset over gate IDs: bit id (word id/64, bit id%64)
// is set iff gate id lies in the transitive fanin of some primary output.
// It comes from the same memoized cone index as ConeSizes; the caller gets
// its own copy.
func (n *Netlist) Reachable() []uint64 {
	n.coneMu.Lock()
	defer n.coneMu.Unlock()
	n.indexCones()
	return slices.Clone(n.coneReach)
}

// indexCones fills the cone index memo unless it is current; the caller
// holds coneMu.
func (n *Netlist) indexCones() {
	if n.coneSizes == nil {
		n.coneSizes, n.coneReach = n.countCones()
	}
}

// countCones computes ConeSizes as column counts of the membership rows
// (see ConeMembership), counting each row as soon as the sweep has made it
// final rather than in a second pass, and Reachable as the union of the
// rows' supports. The counts are kept bit-sliced —
// planes[k] holds bit k of all 64 columns' running counts — so adding a row
// is a ripple-carry increment of at most log2(gates) word operations (two
// on average) instead of 64 per-bit adds.
func (n *Netlist) countCones() (sizes []int, reach []uint64) {
	sizes = make([]int, len(n.outputs))
	reach = make([]uint64, (len(n.gates)+63)/64)
	// A row is cleared once the sweep has passed it, so rows is all zero
	// again when the next block starts.
	rows := make([]uint64, len(n.gates))
	for base := 0; base < len(n.outputs); base += 64 {
		top := 0
		for j, root := range n.outputs[base:min(base+64, len(n.outputs))] {
			rows[root] |= 1 << uint(j)
			top = max(top, root)
		}
		var planes [64]uint64
		gates, fanins := n.gates[:top+1], n.fanins
		for id := top; id >= 0; id-- {
			r := rows[id]
			if r == 0 {
				continue
			}
			rows[id] = 0
			reach[id>>6] |= 1 << uint(id&63)
			g := gates[id]
			for _, f := range fanins[g.off : g.off+uint32(g.nfan)] {
				rows[f] |= r
			}
			for k := 0; r != 0; k++ {
				planes[k], r = planes[k]^r, planes[k]&r
			}
		}
		for j := base; j < len(sizes) && j < base+64; j++ {
			for k, p := range planes {
				sizes[j] += int(p>>uint(j-base)&1) << uint(k)
			}
		}
	}
	return sizes, reach
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
				for _, f := range n.fanin(id) {
					rows[f] |= r
				}
			}
		}
		visit(base, rows)
	}
}

// Levels returns the logic depth of each gate (inputs and constants at 0)
// and the maximum depth of the circuit. The levels are computed once and
// memoized on the netlist until the next mutation; the caller gets its own
// copy.
func (n *Netlist) Levels() (levels []int, depth int) {
	memo, depth := n.levelMemo()
	levels = make([]int, len(memo))
	for id, l := range memo {
		levels[id] = int(l)
	}
	return levels, depth
}

// OutputLevels returns, per primary output in port order, the logic level
// of its driving gate, read off the same memo as Levels.
func (n *Netlist) OutputLevels() []int {
	memo, _ := n.levelMemo()
	out := make([]int, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = int(memo[id])
	}
	return out
}

// levelMemo returns the memoized levels and depth, computing them unless
// they are current. The slice is shared and must not be modified.
func (n *Netlist) levelMemo() ([]int32, int) {
	n.levelMu.Lock()
	defer n.levelMu.Unlock()
	if n.levels == nil {
		levelPasses.Add(1)
		n.levels, n.depth = make([]int32, len(n.gates)), 0
		for id := range n.gates {
			var l int32
			for _, f := range n.fanin(id) {
				l = max(l, n.levels[f]+1)
			}
			n.levels[id] = l
			n.depth = max(n.depth, int(l))
		}
	}
	return n.levels, n.depth
}

// levelPasses counts level computations, memo hits excluded.
var levelPasses atomic.Int64

// LevelsComputed reports how many times this process has computed a
// netlist's logic levels; memoized Levels and OutputLevels calls do not
// count. It lets tests pin one levels pass per extraction.
func LevelsComputed() int64 { return levelPasses.Load() }

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
	for _, r := range n.gates {
		s.ByType[r.typ]++
	}
	_, s.Depth = n.levelMemo()
	return s
}

// maxLutInputs bounds a LUT's fanin count (AddLut) and so the number of
// distinct variables any gate model can have.
const maxLutInputs = 16

// cellModels holds, per fixed cell type, the ANF of the cell over distinct
// fanins as masks (bit i = fanin i), derived once from the shared eval by
// the Möbius transform.
var cellModels = func() (models [Lut][]uint32) {
	var t anf.Terms
	var in [4]bool
	for typ := Const0; typ < Lut; typ++ {
		k := typ.Arity()
		t.SetFunc([]anf.Var{0, 1, 2, 3}[:k], func(row int) bool {
			for i := range k {
				in[i] = row>>uint(i)&1 != 0
			}
			return typ.eval(in[:k])
		})
		models[typ] = slices.Clone(t.Masks)
	}
	return models
}()

// GateTerms writes the algebraic model of gate id — the per-gate
// expression of Eq. (1) in the paper, extended to complex cells — into t,
// over the variables anf.Var(fanin). The model's variables are the gate's
// distinct fanins, so repeated fanins collapse and the terms are the exact,
// distinct ANF of the cell: XOR(a,a) has none, AND(a,a) is a. Fixed cells
// with distinct fanins come from cellModels; LUTs and repeated fanins run
// the Möbius transform over Gate.Eval. Both derive from the same eval used
// by simulation, so the algebraic and Boolean semantics coincide by
// construction. t is the caller's reusable buffer: once its slices have
// grown, writing a model allocates nothing.
func (n *Netlist) GateTerms(id int, t *anf.Terms) error {
	typ, fanin := n.Cell(id)
	if typ == Input {
		return fmt.Errorf("netlist: gate %d is a primary input", id)
	}
	k := len(fanin)
	if k > maxLutInputs {
		return fmt.Errorf("netlist: gate %d has %d fanins (max %d)", id, k, maxLutInputs)
	}
	// The model's variables are the distinct fanins, ascending; slot[i] is
	// fanin i's position among them.
	vars := t.Vars[:0]
	for _, f := range fanin {
		vars = append(vars, anf.Var(f))
	}
	slices.Sort(vars)
	vars = slices.Compact(vars)
	t.Vars = vars
	var slot [maxLutInputs]uint8
	for i, f := range fanin {
		slot[i] = uint8(slices.Index(vars, anf.Var(f)))
	}
	if typ != Lut && len(vars) == k {
		t.Masks = t.Masks[:0]
		for _, m := range cellModels[typ] {
			var r uint32
			for i := 0; m != 0; i, m = i+1, m>>1 {
				r |= (m & 1) << slot[i]
			}
			t.Masks = append(t.Masks, r)
		}
		return nil
	}
	var in [maxLutInputs]bool
	g := n.Gate(id)
	t.SetFunc(vars, func(row int) bool {
		for i := range k {
			in[i] = row>>slot[i]&1 != 0
		}
		return g.Eval(in[:k])
	})
	return nil
}

// GateANF returns the algebraic model of gate id (GateTerms) as a
// polynomial.
func (n *Netlist) GateANF(id int) (anf.Poly, error) {
	var t anf.Terms
	if err := n.GateTerms(id, &t); err != nil {
		return anf.Poly{}, err
	}
	return t.Poly(), nil
}
