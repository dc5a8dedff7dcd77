// Package sem is the semantic layer of netlist static analysis: an abstract
// interpreter that propagates per-wire algebraic facts through one forward
// topological sweep of the gate DAG.
//
// Every wire gets a value in a product lattice:
//
//   - an exact 64-bit truth-table sub-domain for wires whose cone reaches at
//     most six distinct primary inputs — constants, linearity, degree,
//     support and unateness are all decided exactly there (catching
//     reconvergent identities like x XOR x that syntactic rules cannot);
//   - ANF degree upper bounds, split per operand class (degree in the a
//     vector, in the b vector, in surplus "key" inputs, and total) — a
//     GF(2^m) multiplier output must be bilinear: degree <= 1 in each
//     operand, 0 in anything else;
//   - the support set (which primary inputs can influence the wire) as an
//     interned bitset, with widening to operand-class closure when a
//     degenerate design manufactures too many distinct sets;
//   - constant / unateness status.
//
// Gate transfer functions are derived from the gate's own truth table
// (restricted by constant fanins first, then Mobius-transformed to its local
// ANF), so every cell type — including LUTs and complex AOI/OAI/MUX cells —
// is handled by the same sound rule: a local monomial's degree bound is the
// saturating sum of its fanins' bounds, a gate's support the union of its
// essential fanins' supports.
//
// The whole sweep is linear in gates x support words and runs in a few
// milliseconds even at GF(2^571) scale — cheap enough to run at submit time
// before any rewriting starts, which is the point: the lint rules built on
// top (nonlinear-cone, key-gate, opaque-constant, dead-by-algebra, the
// degree-driven cost predictor) reject or budget hostile inputs for the
// price of one linear pass.
package sem

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
)

// DegCap saturates degree upper bounds; anything above is reported as
// "effectively unbounded" rather than tracked precisely.
const DegCap = 1 << 20

// Options configures an analysis.
type Options struct {
	// MaxSets caps the support-set intern table before widening kicks in
	// (default 1<<16 distinct sets).
	MaxSets int
}

const (
	// ttMaxVars bounds the exact truth-table sub-domain's variable count:
	// one uint64 table per wire.
	ttMaxVars      = 6
	defaultMaxSets = 1 << 16
)

func (o Options) maxSets() int {
	if o.MaxSets <= 8 {
		return defaultMaxSets
	}
	return o.MaxSets
}

// fact is the per-wire lattice value, packed into 40 bytes: the sweep keeps
// one per gate, and on a large netlist fresh memory for them costs more
// than the sweep that fills them. Exact facts (ttn >= 0: degrees, support
// and unateness are exact, in the truth-table domain) and abstract ones
// (ttn < 0) share the variable array. An exact fact lists its variables
// there, carries its support implicitly in them, and keeps its degrees,
// at most six, in edeg; an abstract fact keeps its interned support set
// and its saturating degree bounds there instead.
type fact struct {
	tt  uint64   // exact: truth table over ttv[:ttn]
	ttv [6]int32 // exact: variables as input positions, ascending; abstract: see absSupp..absDegTot

	edeg  [4]int8 // exact: ANF degrees in a, b, key inputs and total
	konst int8    // -1 unknown, else the constant value
	ttn   int8    // exact truth-table variable count; -1 when abstract
	flags uint8   // factSyn, factUnate
}

// Slots of an abstract fact's ttv.
const (
	absSupp = iota // interned support set (over input positions)
	absDegA
	absDegB
	absDegK
	absDegTot
)

const (
	factSyn   = 1 << iota // constant reached by propagation only (foldable, not algebraic)
	factUnate             // monotone/anti-monotone in every support input
)

func (f *fact) exact() bool { return f.ttn >= 0 }
func (f *fact) syn() bool   { return f.flags&factSyn != 0 }
func (f *fact) unate() bool { return f.flags&factUnate != 0 }

func (f *fact) setUnate(u bool) {
	if u {
		f.flags |= factUnate
	} else {
		f.flags &^= factUnate
	}
}

// supp returns an abstract fact's interned support set, -1 for an exact
// fact, whose support is ttv[:ttn].
func (f *fact) supp() int32 {
	if f.exact() {
		return -1
	}
	return f.ttv[absSupp]
}

// degs returns the degree bounds in a, b, key inputs and total.
func (f *fact) degs() (a, b, k, t int32) {
	if f.exact() {
		return int32(f.edeg[0]), int32(f.edeg[1]), int32(f.edeg[2]), int32(f.edeg[3])
	}
	return f.ttv[absDegA], f.ttv[absDegB], f.ttv[absDegK], f.ttv[absDegTot]
}

// setDegs sets the degree bounds; an exact fact's are at most six.
func (f *fact) setDegs(a, b, k, t int32) {
	if f.exact() {
		f.edeg = [4]int8{int8(a), int8(b), int8(k), int8(t)}
		return
	}
	f.ttv[absDegA], f.ttv[absDegB], f.ttv[absDegK], f.ttv[absDegTot] = a, b, k, t
}

// exactFact returns an exact fact over ttn variables with truth table tt.
func exactFact(ttn int, tt uint64) fact { return fact{konst: -1, ttn: int8(ttn), tt: tt} }

// constFact returns the constant v; syn marks a constant reached by
// propagation only.
func constFact(v int8, syn bool) fact {
	f := fact{konst: v, flags: factUnate}
	if syn {
		f.flags |= factSyn
	}
	return f
}

func satDeg(v int32) int32 {
	if v > DegCap {
		return DegCap
	}
	return v
}

func maxDeg(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// OutputFact summarizes one primary output's algebraic classification.
type OutputFact struct {
	// Bit is the output position, Gate the driving gate ID, Name the port.
	Bit  int
	Gate int
	Name string
	// Const is -1 for non-constant outputs, else the proven value.
	Const int8
	// Degree upper bounds (exact when Exact).
	DegA, DegB, DegKey, DegTot int
	// Exact marks outputs settled in the truth-table domain.
	Exact bool
	// SupportSize counts primary inputs that can influence this output.
	SupportSize int
	// KeyInputs lists gate IDs of key-classed inputs in the support:
	// non-operand inputs whose value gates this output.
	KeyInputs []int
}

// Result is the outcome of one semantic sweep: what its readers query, and
// none of the sweep's per-gate working state, which the next sweep reuses.
// It is immutable after Analyze and safe for concurrent readers
// (AnalyzeCached shares it).
type Result struct {
	Ports   Ports
	Outputs []OutputFact

	NumGates  int
	NumInputs int
	// SetsInterned (support sets stored, distinct ones once the pool
	// indexes them) and Widened expose intern-table pressure: Widened > 0
	// means support precision degraded to operand-class granularity for
	// some wires.
	SetsInterned int
	Widened      int
	Elapsed      time.Duration

	keyOnly  []uint64    // bit id set iff KeyOnly(id); nil without key inputs
	algConst []GateConst // AlgebraicConsts
}

// GateConst is a gate the sweep proves constant, with its value.
type GateConst struct {
	Gate  int
	Value bool
}

// analyzer carries the sweep's working state: the per-gate facts, the
// support pool and the scratch buffers. A finished sweep hands its analyzer
// on to the next (see takeAnalyzer), so on a run of sweeps the facts array
// and the support slab stop being fresh memory.
type analyzer struct {
	n        *netlist.Netlist
	ports    Ports
	inputs   []int
	pool     suppPool
	facts    []fact
	algConst []int

	uid       []int32 // distinct non-const fanins of the current gate
	slotIdx   []int8  // per fanin slot: index into uid, or -1 (constant)
	slotConst []bool  // per fanin slot: value when slotIdx < 0
	evalIn    []bool
	suppBuf   []uint64
}

// Analyze runs the semantic sweep over a constructed netlist.
func Analyze(n *netlist.Netlist, opts Options) *Result {
	return analyze(n, opts, nil)
}

// stopEvery is how many gates the sweep settles between looks at its stop
// flag.
const stopEvery = 1 << 12

// analyze is Analyze, abandoned with a nil result once stop (if not nil) is
// set.
func analyze(n *netlist.Netlist, opts Options, stop *atomic.Bool) *Result {
	start := time.Now()
	a := takeAnalyzer()
	defer putAnalyzer(a)
	if !a.sweep(n, opts, stop) {
		return nil
	}
	r := a.result()
	r.Elapsed = time.Since(start)
	return r
}

// sweep settles every gate of n, in ID order, into a.facts, growing a's
// buffers where n needs more than an earlier sweep did. It reports false,
// abandoned, once stop (if not nil) is set.
func (a *analyzer) sweep(n *netlist.Netlist, opts Options, stop *atomic.Bool) bool {
	inputs := n.Inputs()
	names := make([]string, len(inputs))
	for i, id := range inputs {
		names[i] = n.NameOf(id)
	}
	a.n, a.inputs = n, inputs
	a.ports = classify(inputs, names)
	a.pool.reset(len(inputs), opts.maxSets(), n.NumGates()/4+16, a.ports.Class)
	// Every gate's fact is written before it is read (fanins precede their
	// readers), so reused facts need no clearing.
	a.facts = slices.Grow(a.facts[:0], n.NumGates())[:n.NumGates()]
	a.algConst = a.algConst[:0]
	a.suppBuf = slices.Grow(a.suppBuf[:0], a.pool.nwords)[:a.pool.nwords]
	// Primary inputs are settled up front, where their positions are at
	// hand: an exact fact names its variables by input position, which is
	// what the operand classes and support bitsets are indexed by.
	// Exact facts carry their support explicitly in ttv[:ttn] and defer
	// bitset interning until an abstract consumer needs it, which keeps the
	// pool out of the (dominant) exact-domain path entirely.
	for pos, id := range inputs {
		f := &a.facts[id]
		*f = exactFact(1, 0b10)
		f.flags = factUnate
		f.ttv[0] = int32(pos)
		switch a.ports.Class[pos] {
		case ClassA:
			f.setDegs(1, 0, 0, 1)
		case ClassB:
			f.setDegs(0, 1, 0, 1)
		default:
			f.setDegs(0, 0, 1, 1)
		}
	}
	for id := 0; id < n.NumGates(); id++ {
		if id%stopEvery == 0 && stop != nil && stop.Load() {
			return false
		}
		f := &a.facts[id]
		a.transfer(id, f)
		if f.konst >= 0 && !f.syn() {
			a.algConst = append(a.algConst, id)
		}
	}
	return true
}

// result copies out of a finished sweep what Result's readers query.
func (a *analyzer) result() *Result {
	n := a.n
	r := &Result{
		Ports:        a.ports,
		NumGates:     n.NumGates(),
		NumInputs:    len(a.inputs),
		SetsInterned: a.pool.count(),
		Widened:      a.pool.widens,
		algConst:     make([]GateConst, len(a.algConst)),
	}
	for i, id := range a.algConst {
		r.algConst[i] = GateConst{Gate: id, Value: a.facts[id].konst == 1}
	}
	if a.ports.Partitioned && len(a.ports.KeyInputs) > 0 {
		r.keyOnly = make([]uint64, (n.NumGates()+63)/64)
		for id := range a.facts {
			if a.keyOnly(id) {
				r.keyOnly[id/64] |= 1 << uint(id%64)
			}
		}
	}
	outs := n.Outputs()
	outNames := n.OutputNames()
	r.Outputs = make([]OutputFact, len(outs))
	for i, id := range outs {
		f := &a.facts[id]
		of := OutputFact{
			Bit: i, Gate: id,
			Const: f.konst,
			Exact: f.exact(),

			SupportSize: a.supportSize(id),
			KeyInputs:   a.keySupport(id),
		}
		if i < len(outNames) {
			of.Name = outNames[i]
		}
		da, db, dk, dt := f.degs()
		of.DegA, of.DegB, of.DegKey, of.DegTot = int(da), int(db), int(dk), int(dt)
		r.Outputs[i] = of
	}
	return r
}

// transfer computes the lattice value of gate id from its fanins' values
// into f, the gate's own slot.
func (a *analyzer) transfer(id int, f *fact) {
	typ, fanin := a.n.Cell(id)
	switch typ {
	case netlist.Input:
		return // settled before the sweep
	case netlist.Const0:
		*f = constFact(0, true)
		return
	case netlist.Const1:
		*f = constFact(1, true)
		return
	}

	// Plain 2-input cells on two distinct non-constant fanins — the bulk of
	// any multiplier — take their local table straight from plainTables:
	// both variables are essential, so the partition below, the
	// restriction, Eval sweep and essentiality drop are all skipped.
	if len(fanin) == 2 && int(typ) < len(plainTables) && plainTables[typ] != 0 {
		f0, f1 := fanin[0], fanin[1]
		u, w := &a.facts[f0], &a.facts[f1]
		if f0 != f1 && u.konst < 0 && w.konst < 0 {
			if a.plainDisjoint(f, typ, u, w) {
				return
			}
			if u.exact() && w.exact() {
				a.uid = append(a.uid[:0], int32(f0), int32(f1))
				if a.exactCompose(f, plainTables[typ], 2, typ) {
					return
				}
			}
			a.abstractPlain(f, typ, u, w)
			return
		}
	}
	a.transferCell(a.n.Gate(id), f)
}

// transferCell is transfer's general step, for any cell on any fanins.
func (a *analyzer) transferCell(g netlist.Gate, f *fact) {
	// Partition fanin slots into constants and distinct variable signals;
	// constant fanins are baked into the gate-local truth table (automatic
	// constant folding), duplicate fanins collapse to one variable
	// (AND(x,x) = x, XOR(x,x) = 0 fall out of the restriction for free).
	a.uid = a.uid[:0]
	a.slotIdx = a.slotIdx[:0]
	a.slotConst = a.slotConst[:0]
	hadConstFanin := false
	for _, fi := range g.Fanin {
		ff := &a.facts[fi]
		if ff.konst >= 0 {
			hadConstFanin = true
			a.slotIdx = append(a.slotIdx, -1)
			a.slotConst = append(a.slotConst, ff.konst == 1)
			continue
		}
		j := -1
		for q, u := range a.uid {
			if u == int32(fi) {
				j = q
				break
			}
		}
		if j < 0 {
			a.uid = append(a.uid, int32(fi))
			j = len(a.uid) - 1
		}
		a.slotIdx = append(a.slotIdx, int8(j))
		a.slotConst = append(a.slotConst, false)
	}
	k := len(a.uid)

	if k > 6 {
		*f = a.coarse()
		return
	}

	// Buffers and inverters on a non-constant fanin get their local table
	// from a lookup (plain 2-input cells took the path above); the variable
	// is essential, so the restriction, Eval sweep and essentiality drop
	// below are all skipped.
	var T uint64
	fast := false
	if k == 1 && len(g.Fanin) == 1 {
		switch g.Type {
		case netlist.Buf:
			T, fast = 0b10, true
		case netlist.Not:
			T, fast = 0b01, true
		}
	}
	if !fast {
		// Gate-local truth table over the distinct variable fanins.
		for cap(a.evalIn) < len(g.Fanin) {
			a.evalIn = append(a.evalIn[:cap(a.evalIn)], false)
		}
		a.evalIn = a.evalIn[:len(g.Fanin)]
		for row := 0; row < 1<<uint(k); row++ {
			for s := range g.Fanin {
				if a.slotIdx[s] < 0 {
					a.evalIn[s] = a.slotConst[s]
				} else {
					a.evalIn[s] = row>>uint(a.slotIdx[s])&1 == 1
				}
			}
			if g.Eval(a.evalIn) {
				T |= 1 << uint(row)
			}
		}

		// Drop variables the restricted function does not actually read.
		for i := k - 1; i >= 0; i-- {
			if !essential(T, k, i) {
				T = dropVar(T, k, i)
				copy(a.uid[i:], a.uid[i+1:])
				k--
				a.uid = a.uid[:k]
			}
		}
		if k == 0 {
			v := int8(0)
			if T&1 == 1 {
				v = 1
			}
			// Constant with no essential variables left: syntactic when a
			// constant fanin forced it, algebraic when distinct live signals
			// cancelled (XOR(x,x), MUX with equal branches, ...).
			*f = constFact(v, hadConstFanin)
			return
		}
	}

	if !a.exactCompose(f, T, k, netlist.Input) {
		*f = a.abstract(T, k)
	}
}

// plainTables holds the truth tables of the plain 2-input cells over their
// two fanins, 0 for every other type.
var plainTables = [...]uint64{
	netlist.And:  0b1000,
	netlist.Or:   0b1110,
	netlist.Xor:  0b0110,
	netlist.Xnor: 0b1001,
	netlist.Nand: 0b0111,
	netlist.Nor:  0b0001,
}

// exactCompose tries to settle the gate in the truth-table domain: all
// remaining fanins must be exact and their combined variable set small.
// cell is the gate's type when it is a plain 2-input cell on two distinct
// non-constant fanins, netlist.Input otherwise. On success the fact is
// written to f.
func (a *analyzer) exactCompose(f *fact, T uint64, k int, cell netlist.GateType) bool {
	// The joint variable set: merge the fanins' ascending variable lists,
	// giving up as soon as it outgrows the exact domain. A signature with
	// bit v&63 per variable rejects most oversized sets before the merge:
	// its population bounds the joint set's size from below.
	var sig uint64
	for _, u := range a.uid {
		uf := &a.facts[u]
		if uf.ttn < 0 {
			return false
		}
		for _, v := range uf.ttv[:uf.ttn] {
			sig |= 1 << (uint32(v) & 63)
		}
	}
	if bits.OnesCount64(sig) > ttMaxVars {
		return false
	}
	var bufs [2][6]int32 // merge ping-pong: bufs[cur][:nv] is the set so far
	cur, nv := 0, 0
	for _, u := range a.uid {
		uf := &a.facts[u]
		if uf.ttn < 0 {
			return false
		}
		src, dst := &bufs[cur], &bufs[cur^1]
		i, j, m, nf := 0, 0, 0, int(uf.ttn)
		for i < nv || j < nf {
			var v int32
			switch {
			case j == nf || i < nv && src[i] < uf.ttv[j]:
				v = src[i]
				i++
			case i == nv || uf.ttv[j] < src[i]:
				v = uf.ttv[j]
				j++
			default:
				v = src[i]
				i++
				j++
			}
			if m == ttMaxVars {
				return false
			}
			dst[m] = v
			m++
		}
		cur, nv = cur^1, m
	}
	vbuf := bufs[cur][:nv]

	// Word-parallel composition: lift every fanin's table into the joint
	// 2^nv-row space by inserting each joint variable the fanin does not
	// read, then OR the minterms of the gate-local table T over the lifted
	// fanin words. Cost is O(k * nv) word operations instead of a
	// bit-at-a-time walk over all 2^nv rows.
	var ex [6]uint64
	for j, u := range a.uid {
		uf := &a.facts[u]
		if uf.ttn == 1 && uf.tt == 0b10 {
			// A plain variable lifts to its own row pattern.
			ex[j] = ^lowMask[slices.Index(vbuf, uf.ttv[0])]
			continue
		}
		e, vars, q := uf.tt, int(uf.ttn), 0
		for p, v := range vbuf {
			if q < int(uf.ttn) && uf.ttv[q] == v {
				q++
				continue
			}
			e = dupAt(e, vars, p)
			vars++
		}
		ex[j] = e
	}
	full := ^uint64(0)
	if nv < 6 {
		full = 1<<uint(1<<uint(nv)) - 1
	}
	var out uint64
	if cell != netlist.Input {
		out = combine(cell, ex[0], ex[1]) & full
	} else {
		for frow := 0; frow < 1<<uint(k); frow++ {
			if T>>uint(frow)&1 == 0 {
				continue
			}
			term := full
			for j := 0; j < k; j++ {
				if frow>>uint(j)&1 == 1 {
					term &= ex[j]
				} else {
					term &^= ex[j]
				}
			}
			out |= term
		}
	}

	// Composition can cancel variables (reconvergence); compact them away.
	for i := nv - 1; i >= 0; i-- {
		if !essential(out, nv, i) {
			out = dropVar(out, nv, i)
			copy(vbuf[i:], vbuf[i+1:])
			nv--
			vbuf = vbuf[:nv]
		}
	}
	if nv == 0 {
		v := int8(0)
		if out&1 == 1 {
			v = 1
		}
		*f = constFact(v, false)
		return true
	}

	*f = exactFact(nv, out)
	copy(f.ttv[:], vbuf)

	// Exact degrees from the ANF spectrum: bit position m of spec encodes a
	// monomial's variable set, so per-class degrees are popcounts against
	// per-class variable masks.
	spec := mobius(out, nv)
	var mskA, mskB uint64
	for j := 0; j < nv; j++ {
		switch a.ports.Class[vbuf[j]] {
		case ClassA:
			mskA |= 1 << uint(j)
		case ClassB:
			mskB |= 1 << uint(j)
		}
	}
	var fa, fb, fk, ft int32
	for s := spec &^ 1; s != 0; s &= s - 1 {
		m := uint64(bits.TrailingZeros64(s))
		da := int32(bits.OnesCount64(m & mskA))
		db := int32(bits.OnesCount64(m & mskB))
		dt := int32(bits.OnesCount64(m))
		fa, fb = maxDeg(fa, da), maxDeg(fb, db)
		fk, ft = maxDeg(fk, dt-da-db), maxDeg(ft, dt)
	}
	f.setDegs(fa, fb, fk, ft)

	// Exact unateness; support stays implicit in ttv.
	unate := true
	for j := 0; j < nv; j++ {
		if !unateIn(out, nv, j) {
			unate = false
		}
	}
	f.setUnate(unate)
	return true
}

// plainDisjoint settles a plain 2-input cell over two exact fanins u and w
// that read disjoint variables — every partial product of a multiplier and the
// first levels of its XOR trees — without the general merge: the joint
// variable list interleaves the two, each fanin's table is lifted over the
// other's variables, and the cell combines the lifted tables word-wide.
// Every joint variable stays essential, so degrees and unateness compose
// without the spectrum (composeDisjoint). It reports false, changing
// nothing, when the fanins share a variable or outgrow the exact domain.
func (a *analyzer) plainDisjoint(f *fact, cell netlist.GateType, u, w *fact) bool {
	nu, nw := int(u.ttn), int(w.ttn)
	if nu < 0 || nw < 0 || nu+nw > ttMaxVars {
		return false
	}
	if nu == 1 && nw == 1 && u.tt == 0b10 && w.tt == 0b10 && u.ttv[0] != w.ttv[0] {
		// Two distinct plain variables — a partial product: the six plain
		// cells are symmetric, so the cell's own table is the joint one.
		*f = exactFact(2, plainTables[cell])
		f.ttv[0], f.ttv[1] = min(u.ttv[0], w.ttv[0]), max(u.ttv[0], w.ttv[0])
		a.composeDisjoint(f, cell, u, w)
		return true
	}
	nv := nu + nw
	var vars [6]int32
	var fromU uint // bit p: joint variable p is u's
	for p, i, j := 0, 0, 0; p < nv; p++ {
		switch {
		case j == nw || i < nu && u.ttv[i] < w.ttv[j]:
			vars[p] = u.ttv[i]
			fromU |= 1 << uint(p)
			i++
		case i == nu || w.ttv[j] < u.ttv[i]:
			vars[p] = w.ttv[j]
			j++
		default:
			return false // a shared variable
		}
	}
	eu, ew := u.tt, w.tt
	for p, ku, kw := 0, nu, nw; p < nv; p++ {
		if fromU>>uint(p)&1 == 1 {
			ew = dupAt(ew, kw, p)
			kw++
		} else {
			eu = dupAt(eu, ku, p)
			ku++
		}
	}
	*f = exactFact(nv, combine(cell, eu, ew)&rowMask(nv))
	copy(f.ttv[:], vars[:nv])
	a.composeDisjoint(f, cell, u, w)
	return true
}

// combine applies plain 2-input cell to two tables over the same
// variables, row by row.
func combine(cell netlist.GateType, x, y uint64) uint64 {
	switch cell {
	case netlist.And:
		return x & y
	case netlist.Or:
		return x | y
	case netlist.Xor:
		return x ^ y
	case netlist.Xnor:
		return ^(x ^ y)
	case netlist.Nand:
		return ^(x & y)
	}
	return ^(x | y) // netlist.Nor
}

// composeDisjoint sets the degrees and unateness of a plain 2-input cell
// whose two exact fanins u and w read disjoint variables. Each fanin is
// non-constant with every variable essential, so the facts compose
// algebraically: a product (AND, OR = f+g+fg, and their complements) adds
// the fanins' per-class degrees and is unate iff both fanins are, while a
// sum (XOR, XNOR) keeps the larger degrees and, over disjoint supports, is
// never unate.
func (a *analyzer) composeDisjoint(f *fact, cell netlist.GateType, u, w *fact) {
	ua, ub, uk, ut := u.degs()
	wa, wb, wk, wt := w.degs()
	if cell == netlist.Xor || cell == netlist.Xnor {
		f.setDegs(maxDeg(ua, wa), maxDeg(ub, wb), maxDeg(uk, wk), maxDeg(ut, wt))
		return
	}
	f.setDegs(ua+wa, ub+wb, uk+wk, ut+wt)
	f.setUnate(u.unate() && w.unate())
}

// abstract settles the gate in the abstract domain: monomial-wise degree
// bounds from the gate-local ANF, support union, compositional unateness.
func (a *analyzer) abstract(T uint64, k int) fact {
	f := fact{konst: -1, ttn: -1}
	var fa, fb, fk, ft int32
	spec := mobius(T, k)
	for m := 1; m < 1<<uint(k); m++ {
		if spec>>uint(m)&1 == 0 {
			continue
		}
		var da, db, dk, dt int32
		for j := 0; j < k; j++ {
			if m>>uint(j)&1 == 0 {
				continue
			}
			ua, ub, uk, ut := a.facts[a.uid[j]].degs()
			da, db = satDeg(da+ua), satDeg(db+ub)
			dk, dt = satDeg(dk+uk), satDeg(dt+ut)
		}
		fa, fb = maxDeg(fa, da), maxDeg(fb, db)
		fk, ft = maxDeg(fk, dk), maxDeg(ft, dt)
	}
	f.setDegs(fa, fb, fk, ft)

	for i := range a.suppBuf {
		a.suppBuf[i] = 0
	}
	sum := 0
	allUnate := true
	for _, u := range a.uid {
		uf := &a.facts[u]
		sum += a.orSupp(uf)
		if !uf.unate() {
			allUnate = false
		}
	}
	f.ttv[absSupp] = a.pool.intern(a.suppBuf)
	// Compositional unateness is sound only when fanin cones do not share
	// inputs (no path can flip polarity against another); with disjoint
	// supports, gate-local unateness in every variable lifts to the wire.
	if allUnate && sum == a.pool.size(f.supp()) {
		unate := true
		for j := 0; j < k; j++ {
			if !unateIn(T, k, j) {
				unate = false
				break
			}
		}
		f.setUnate(unate)
	}
	return f
}

// abstractPlain is abstract for a plain 2-input cell on fanins u and w,
// whose local ANF needs no spectrum: XOR and XNOR sum their fanins,
// so their degrees are the fanins' larger ones and they are unate in
// neither; the other four multiply them (x+y = x ^ y ^ xy), so degrees add
// and they are unate in both.
func (a *analyzer) abstractPlain(f *fact, cell netlist.GateType, u, w *fact) {
	ua, ub, uk, ut := u.degs()
	wa, wb, wk, wt := w.degs()
	*f = fact{konst: -1, ttn: -1}
	sum := cell != netlist.Xor && cell != netlist.Xnor
	if sum {
		f.setDegs(satDeg(ua+wa), satDeg(ub+wb), satDeg(uk+wk), satDeg(ut+wt))
	} else {
		f.setDegs(maxDeg(ua, wa), maxDeg(ub, wb), maxDeg(uk, wk), maxDeg(ut, wt))
	}
	// An abstract fanin's set seeds the union.
	switch {
	case !u.exact():
		copy(a.suppBuf, a.pool.get(u.supp()))
		a.unionSupp(w)
	case !w.exact():
		copy(a.suppBuf, a.pool.get(w.supp()))
		a.unionSupp(u)
	default:
		clear(a.suppBuf)
		a.unionSupp(u)
		a.unionSupp(w)
	}
	f.ttv[absSupp] = a.pool.intern(a.suppBuf)
	// As in abstract: unateness lifts only over disjoint supports.
	if sum && u.unate() && w.unate() && a.suppSize(u)+a.suppSize(w) == a.pool.size(f.supp()) {
		f.setUnate(true)
	}
}

// coarse handles gates with more than six distinct live fanins (wide LUTs):
// the worst-case monomial multiplies every fanin, so degree bounds add.
func (a *analyzer) coarse() fact {
	f := fact{konst: -1, ttn: -1}
	for i := range a.suppBuf {
		a.suppBuf[i] = 0
	}
	var fa, fb, fk, ft int32
	for _, u := range a.uid {
		uf := &a.facts[u]
		ua, ub, uk, ut := uf.degs()
		fa, fb = satDeg(fa+ua), satDeg(fb+ub)
		fk, ft = satDeg(fk+uk), satDeg(ft+ut)
		a.orSupp(uf)
	}
	f.setDegs(fa, fb, fk, ft)
	f.ttv[absSupp] = a.pool.intern(a.suppBuf)
	return f
}

// orSupp ORs fanin uf's support into suppBuf and returns its cardinality.
func (a *analyzer) orSupp(uf *fact) int {
	a.unionSupp(uf)
	return a.suppSize(uf)
}

// unionSupp ORs fanin uf's support into suppBuf; exact facts (supp < 0)
// contribute their ttv variables directly without touching the pool.
func (a *analyzer) unionSupp(uf *fact) {
	if uf.exact() {
		for q := 0; q < int(uf.ttn); q++ {
			pos := uf.ttv[q]
			a.suppBuf[pos/64] |= 1 << uint(pos%64)
		}
		return
	}
	a.pool.unionInto(a.suppBuf, uf.supp())
}

// suppSize returns the cardinality of fanin uf's support.
func (a *analyzer) suppSize(uf *fact) int {
	if uf.exact() {
		return int(uf.ttn)
	}
	return a.pool.size(uf.supp())
}

// AlgebraicConsts lists, ascending, the gates provably constant for
// algebraic reasons — cancellation across distinct signals — rather than by
// constant propagation a syntactic linter already sees, with their values.
// The sweep collects them as it settles them.
func (r *Result) AlgebraicConsts() []GateConst { return r.algConst }

// KeyOnly reports whether gate id's support is nonempty and lies wholly in
// the key class: its value is fixed once the key is chosen — an opaque
// constant under any particular key.
func (r *Result) KeyOnly(id int) bool {
	return r.keyOnly != nil && r.keyOnly[id/64]&(1<<uint(id%64)) != 0
}

// supportSize counts the primary inputs that can influence gate id.
func (a *analyzer) supportSize(id int) int {
	f := &a.facts[id]
	if f.exact() {
		return int(f.ttn)
	}
	return a.pool.size(f.supp())
}

// suppPositions returns gate id's support as ascending input positions;
// exact facts read it off ttv, abstract facts off the interned set.
func (a *analyzer) suppPositions(id int) []int {
	f := &a.facts[id]
	if f.exact() {
		out := make([]int, 0, int(f.ttn))
		for q := 0; q < int(f.ttn); q++ {
			out = append(out, int(f.ttv[q]))
		}
		return out
	}
	return a.pool.members(f.supp(), nil)
}

// keySupport returns the gate IDs of key-classed inputs in gate id's
// support — the inputs whose value gates this wire.
func (a *analyzer) keySupport(id int) []int {
	if !a.ports.Partitioned || len(a.ports.KeyInputs) == 0 {
		return nil
	}
	var out []int
	for _, p := range a.suppPositions(id) {
		if a.ports.Class[p] == ClassKey {
			out = append(out, a.inputs[p])
		}
	}
	return out
}

// keyOnly is Result.KeyOnly on the sweep's facts.
func (a *analyzer) keyOnly(id int) bool {
	f := &a.facts[id]
	if f.konst >= 0 {
		return false
	}
	if f.exact() {
		if f.ttn == 0 {
			return false
		}
		for q := 0; q < int(f.ttn); q++ {
			if a.ports.Class[f.ttv[q]] != ClassKey {
				return false
			}
		}
		return true
	}
	return f.supp() != emptySet && a.pool.subsetOfClass(f.supp(), ClassKey)
}

// GatedKeyInputs returns the union, over all outputs, of key inputs in the
// output's support — every key input that actually gates an output.
func (r *Result) GatedKeyInputs() []int {
	seen := map[int]bool{}
	var out []int
	for _, of := range r.Outputs {
		for _, id := range of.KeyInputs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// LinearPerOperand reports whether every output is bilinear: ANF degree at
// most 1 in each operand vector and degree 0 in key inputs. Constant
// outputs count as (degenerately) linear.
func (r *Result) LinearPerOperand() bool {
	if !r.Ports.Partitioned {
		return false
	}
	for _, of := range r.Outputs {
		if of.Const >= 0 {
			continue
		}
		if of.DegA > 1 || of.DegB > 1 || of.DegKey > 0 {
			return false
		}
	}
	return true
}
