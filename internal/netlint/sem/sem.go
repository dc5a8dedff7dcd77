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
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
)

// DegCap saturates degree upper bounds; anything above is reported as
// "effectively unbounded" rather than tracked precisely.
const DegCap = 1 << 20

// Options configures an analysis.
type Options struct {
	// TTMaxVars bounds the exact truth-table sub-domain's variable count
	// (default and maximum 6: one uint64 per wire).
	TTMaxVars int
	// MaxSets caps the support-set intern table before widening kicks in
	// (default 1<<16 distinct sets).
	MaxSets int
}

const (
	defaultTTMaxVars = 6
	defaultMaxSets   = 1 << 16
)

func (o Options) ttMaxVars() int {
	if o.TTMaxVars <= 0 || o.TTMaxVars > 6 {
		return defaultTTMaxVars
	}
	return o.TTMaxVars
}

func (o Options) maxSets() int {
	if o.MaxSets <= 8 {
		return defaultMaxSets
	}
	return o.MaxSets
}

// fact is the per-wire lattice value.
type fact struct {
	supp int32 // interned support set (over input positions)

	degA, degB, degK, degTot int32 // saturating ANF degree upper bounds

	konst int8 // -1 unknown, else the constant value
	syn   bool // constant reached by propagation only (foldable, not algebraic)
	unate bool // monotone/anti-monotone in every support input
	exact bool // degrees/support/unateness are exact (truth-table domain)

	ttn int8     // exact truth-table variable count; -1 when abstract
	tt  uint64   // truth table over ttv[:ttn]
	ttv [6]int32 // variable gate IDs (primary inputs), ascending
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

// Result is the outcome of one semantic sweep. It is immutable after
// Analyze and safe for concurrent readers (AnalyzeCached shares it).
type Result struct {
	Ports   Ports
	Outputs []OutputFact

	NumGates  int
	NumInputs int
	// SetsInterned / Widened expose intern-table pressure: Widened > 0
	// means support precision degraded to operand-class granularity for
	// some wires.
	SetsInterned int
	Widened      int
	Elapsed      time.Duration

	facts    []fact
	pool     *suppPool
	inputs   []int
	inputPos []int32 // gate ID -> input position, -1 otherwise
}

// analyzer carries the sweep's scratch state.
type analyzer struct {
	n        *netlist.Netlist
	opts     Options
	ports    Ports
	pool     *suppPool
	facts    []fact
	inputPos []int32

	uid       []int32 // distinct non-const fanins of the current gate
	slotIdx   []int8  // per fanin slot: index into uid, or -1 (constant)
	slotConst []bool  // per fanin slot: value when slotIdx < 0
	evalIn    []bool
	suppBuf   []uint64
	memb      []int
}

// Analyze runs the semantic sweep over a constructed netlist.
func Analyze(n *netlist.Netlist, opts Options) *Result {
	start := time.Now()
	inputs := n.Inputs()
	names := make([]string, len(inputs))
	for i, id := range inputs {
		names[i] = n.NameOf(id)
	}
	ports := classify(inputs, names)

	inputPos := make([]int32, n.NumGates())
	for i := range inputPos {
		inputPos[i] = -1
	}
	for pos, id := range inputs {
		inputPos[id] = int32(pos)
	}

	a := &analyzer{
		n:        n,
		opts:     opts,
		ports:    ports,
		pool:     newSuppPool(len(inputs), opts.maxSets(), n.NumGates()/2+16, ports.Class),
		facts:    make([]fact, n.NumGates()),
		inputPos: inputPos,
		evalIn:   make([]bool, 0, 32),
		suppBuf:  make([]uint64, (len(inputs)+63)/64),
	}
	if len(a.suppBuf) == 0 {
		a.suppBuf = make([]uint64, 1)
	}
	for id := 0; id < n.NumGates(); id++ {
		a.transfer(id, &a.facts[id])
	}

	r := &Result{
		Ports:        ports,
		NumGates:     n.NumGates(),
		NumInputs:    len(inputs),
		SetsInterned: a.pool.count(),
		Widened:      a.pool.widens,
		facts:        a.facts,
		pool:         a.pool,
		inputs:       inputs,
		inputPos:     inputPos,
	}
	outs := n.Outputs()
	outNames := n.OutputNames()
	for i, id := range outs {
		f := &a.facts[id]
		of := OutputFact{
			Bit: i, Gate: id,
			Const:  f.konst,
			DegA:   int(f.degA),
			DegB:   int(f.degB),
			DegKey: int(f.degK),
			DegTot: int(f.degTot),
			Exact:  f.exact,

			SupportSize: r.SupportSize(id),
			KeyInputs:   r.KeySupport(id),
		}
		if i < len(outNames) {
			of.Name = outNames[i]
		}
		r.Outputs = append(r.Outputs, of)
	}
	r.Elapsed = time.Since(start)
	return r
}

// transfer computes the lattice value of gate id from its fanins' values
// into f, the gate's own slot.
func (a *analyzer) transfer(id int, f *fact) {
	g := a.n.Gate(id)
	switch g.Type {
	case netlist.Input:
		pos := a.inputPos[id]
		// Exact facts carry their support explicitly in ttv[:ttn]; supp = -1
		// defers bitset interning until an abstract consumer needs it, which
		// keeps the pool out of the (dominant) exact-domain path entirely.
		*f = fact{supp: -1, konst: -1, ttn: 1, tt: 0b10, degTot: 1, unate: true, exact: true}
		f.ttv[0] = int32(id)
		switch a.ports.Class[pos] {
		case ClassA:
			f.degA = 1
		case ClassB:
			f.degB = 1
		default:
			f.degK = 1
		}
		return
	case netlist.Const0:
		*f = fact{konst: 0, syn: true, unate: true, exact: true}
		return
	case netlist.Const1:
		*f = fact{konst: 1, syn: true, unate: true, exact: true}
		return
	}

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

	// Plain 1- and 2-input cells on distinct non-constant fanins — the bulk
	// of any synthesized netlist — get their local table from a lookup; both
	// variables are always essential for these types, so the restriction,
	// Eval sweep and essentiality drop below are all skipped.
	var T uint64
	fast := false
	if k == len(g.Fanin) {
		if k == 2 {
			switch g.Type {
			case netlist.And:
				T, fast = 0b1000, true
			case netlist.Or:
				T, fast = 0b1110, true
			case netlist.Xor:
				T, fast = 0b0110, true
			case netlist.Xnor:
				T, fast = 0b1001, true
			case netlist.Nand:
				T, fast = 0b0111, true
			case netlist.Nor:
				T, fast = 0b0001, true
			}
		} else if k == 1 {
			switch g.Type {
			case netlist.Buf:
				T, fast = 0b10, true
			case netlist.Not:
				T, fast = 0b01, true
			}
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
			*f = fact{konst: v, syn: hadConstFanin, unate: true, exact: true}
			return
		}
	}

	cell := netlist.Input // no plain 2-input cell
	if fast && k == 2 {
		cell = g.Type
	}
	if !a.exactCompose(f, T, k, cell) {
		*f = a.abstract(T, k)
	}
}

// exactCompose tries to settle the gate in the truth-table domain: all
// remaining fanins must be exact and their combined variable set small.
// cell is the gate's type when it is a plain 2-input cell on two distinct
// non-constant fanins, netlist.Input otherwise. On success the fact is
// written to f.
func (a *analyzer) exactCompose(f *fact, T uint64, k int, cell netlist.GateType) bool {
	if cell != netlist.Input && a.plainProduct(f, T, cell) {
		return true
	}
	// The joint variable set: merge the fanins' ascending variable lists,
	// giving up as soon as it outgrows the exact domain.
	ttMax := a.opts.ttMaxVars()
	var bufs [2][6]int32 // merge ping-pong: bufs[cur][:nv] is the set so far
	cur, nv, listed := 0, 0, 0
	for _, u := range a.uid {
		uf := &a.facts[u]
		if uf.ttn < 0 {
			return false
		}
		listed += int(uf.ttn)
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
			if m == ttMax {
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

	// Two fanins over disjoint variables through a plain 2-input cell — the
	// bulk of a multiplier's XOR trees: every joint variable stays
	// essential, and degrees and unateness compose without the spectrum.
	if cell != netlist.Input && nv == listed {
		*f = fact{supp: -1, konst: -1, ttn: int8(nv), tt: out, exact: true}
		copy(f.ttv[:], vbuf)
		a.composeDisjoint(f, cell)
		return true
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
		*f = fact{konst: v, unate: true, exact: true}
		return true
	}

	*f = fact{konst: -1, ttn: int8(nv), tt: out, exact: true}
	copy(f.ttv[:], vbuf)

	// Exact degrees from the ANF spectrum: bit position m of spec encodes a
	// monomial's variable set, so per-class degrees are popcounts against
	// per-class variable masks.
	spec := mobius(out, nv)
	var mskA, mskB uint64
	for j := 0; j < nv; j++ {
		switch a.ports.Class[a.inputPos[vbuf[j]]] {
		case ClassA:
			mskA |= 1 << uint(j)
		case ClassB:
			mskB |= 1 << uint(j)
		}
	}
	for s := spec &^ 1; s != 0; s &= s - 1 {
		m := uint64(bits.TrailingZeros64(s))
		da := int32(bits.OnesCount64(m & mskA))
		db := int32(bits.OnesCount64(m & mskB))
		dt := int32(bits.OnesCount64(m))
		f.degA, f.degB = maxDeg(f.degA, da), maxDeg(f.degB, db)
		f.degK, f.degTot = maxDeg(f.degK, dt-da-db), maxDeg(f.degTot, dt)
	}

	// Exact unateness; support stays implicit in ttv (supp = -1).
	f.supp = -1
	f.unate = true
	for j := 0; j < nv; j++ {
		if !unateIn(out, nv, j) {
			f.unate = false
		}
	}
	return true
}

// plainProduct settles a plain 2-input cell over two distinct primary
// input variables — every partial product of a multiplier — directly: the
// six plain 2-input cells are symmetric, so T is already the table over the
// ascending pair.
func (a *analyzer) plainProduct(f *fact, T uint64, cell netlist.GateType) bool {
	u, w := &a.facts[a.uid[0]], &a.facts[a.uid[1]]
	if u.ttn != 1 || u.tt != 0b10 || w.ttn != 1 || w.tt != 0b10 || u.ttv[0] == w.ttv[0] || a.opts.ttMaxVars() < 2 {
		return false // a buffered copy of the same input is not a second variable
	}
	*f = fact{supp: -1, konst: -1, ttn: 2, tt: T, exact: true}
	f.ttv[0], f.ttv[1] = min(u.ttv[0], w.ttv[0]), max(u.ttv[0], w.ttv[0])
	a.composeDisjoint(f, cell)
	return true
}

// composeDisjoint sets the degrees and unateness of a plain 2-input cell
// whose two exact fanins read disjoint variables. Each fanin is
// non-constant with every variable essential, so the facts compose
// algebraically: a product (AND, OR = f+g+fg, and their complements) adds
// the fanins' per-class degrees and is unate iff both fanins are, while a
// sum (XOR, XNOR) keeps the larger degrees and, over disjoint supports, is
// never unate.
func (a *analyzer) composeDisjoint(f *fact, cell netlist.GateType) {
	u, w := &a.facts[a.uid[0]], &a.facts[a.uid[1]]
	if cell == netlist.Xor || cell == netlist.Xnor {
		f.degA, f.degB = maxDeg(u.degA, w.degA), maxDeg(u.degB, w.degB)
		f.degK, f.degTot = maxDeg(u.degK, w.degK), maxDeg(u.degTot, w.degTot)
		return
	}
	f.degA, f.degB = u.degA+w.degA, u.degB+w.degB
	f.degK, f.degTot = u.degK+w.degK, u.degTot+w.degTot
	f.unate = u.unate && w.unate
}

// abstract settles the gate in the abstract domain: monomial-wise degree
// bounds from the gate-local ANF, support union, compositional unateness.
func (a *analyzer) abstract(T uint64, k int) fact {
	f := fact{konst: -1, ttn: -1}
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
			uf := &a.facts[a.uid[j]]
			da, db = satDeg(da+uf.degA), satDeg(db+uf.degB)
			dk, dt = satDeg(dk+uf.degK), satDeg(dt+uf.degTot)
		}
		f.degA, f.degB = maxDeg(f.degA, da), maxDeg(f.degB, db)
		f.degK, f.degTot = maxDeg(f.degK, dk), maxDeg(f.degTot, dt)
	}

	for i := range a.suppBuf {
		a.suppBuf[i] = 0
	}
	sum := 0
	allUnate := true
	for _, u := range a.uid {
		uf := &a.facts[u]
		sum += a.orSupp(uf)
		if !uf.unate {
			allUnate = false
		}
	}
	f.supp = a.pool.intern(a.suppBuf)
	// Compositional unateness is sound only when fanin cones do not share
	// inputs (no path can flip polarity against another); with disjoint
	// supports, gate-local unateness in every variable lifts to the wire.
	if allUnate && sum == a.pool.size(f.supp) {
		f.unate = true
		for j := 0; j < k; j++ {
			if !unateIn(T, k, j) {
				f.unate = false
				break
			}
		}
	}
	return f
}

// coarse handles gates with more than six distinct live fanins (wide LUTs):
// the worst-case monomial multiplies every fanin, so degree bounds add.
func (a *analyzer) coarse() fact {
	f := fact{konst: -1, ttn: -1}
	for i := range a.suppBuf {
		a.suppBuf[i] = 0
	}
	for _, u := range a.uid {
		uf := &a.facts[u]
		f.degA, f.degB = satDeg(f.degA+uf.degA), satDeg(f.degB+uf.degB)
		f.degK, f.degTot = satDeg(f.degK+uf.degK), satDeg(f.degTot+uf.degTot)
		a.orSupp(uf)
	}
	f.supp = a.pool.intern(a.suppBuf)
	return f
}

// orSupp ORs fanin uf's support into suppBuf and returns its cardinality;
// exact facts (supp < 0) contribute their ttv variables directly without
// touching the pool.
func (a *analyzer) orSupp(uf *fact) int {
	if uf.supp < 0 {
		for q := 0; q < int(uf.ttn); q++ {
			pos := a.inputPos[uf.ttv[q]]
			a.suppBuf[pos/64] |= 1 << uint(pos%64)
		}
		return int(uf.ttn)
	}
	a.pool.unionInto(a.suppBuf, uf.supp)
	return a.pool.size(uf.supp)
}

// Const reports whether gate id is provably constant, and its value.
func (r *Result) Const(id int) (value bool, ok bool) {
	f := &r.facts[id]
	return f.konst == 1, f.konst >= 0
}

// AlgebraicConst reports whether gate id is provably constant for algebraic
// reasons — cancellation across distinct signals — rather than by constant
// propagation a syntactic linter already sees.
func (r *Result) AlgebraicConst(id int) bool {
	f := &r.facts[id]
	return f.konst >= 0 && !f.syn
}

// Degrees returns gate id's ANF degree upper bounds (exact for wires in the
// truth-table domain): degree in operand a, in operand b, in key inputs,
// and total.
func (r *Result) Degrees(id int) (degA, degB, degKey, degTot int) {
	f := &r.facts[id]
	return int(f.degA), int(f.degB), int(f.degK), int(f.degTot)
}

// Exact reports whether gate id was settled in the exact truth-table domain.
func (r *Result) Exact(id int) bool { return r.facts[id].exact }

// Unate reports whether gate id is monotone/anti-monotone in every support
// input (exact in the truth-table domain, conservative elsewhere).
func (r *Result) Unate(id int) bool { return r.facts[id].unate }

// SupportSize counts the primary inputs that can influence gate id.
func (r *Result) SupportSize(id int) int {
	f := &r.facts[id]
	if f.supp < 0 {
		return int(f.ttn)
	}
	return r.pool.size(f.supp)
}

// suppPositions returns gate id's support as ascending input positions;
// exact facts read it off ttv, abstract facts off the interned set.
func (r *Result) suppPositions(id int) []int {
	f := &r.facts[id]
	if f.supp < 0 {
		out := make([]int, 0, int(f.ttn))
		for q := 0; q < int(f.ttn); q++ {
			out = append(out, int(r.inputPos[f.ttv[q]]))
		}
		sort.Ints(out)
		return out
	}
	return r.pool.members(f.supp, nil)
}

// SupportInputs returns the gate IDs of primary inputs in gate id's support.
func (r *Result) SupportInputs(id int) []int {
	pos := r.suppPositions(id)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = r.inputs[p]
	}
	return out
}

// KeySupport returns the gate IDs of key-classed inputs in gate id's
// support — the inputs whose value gates this wire.
func (r *Result) KeySupport(id int) []int {
	if !r.Ports.Partitioned || len(r.Ports.KeyInputs) == 0 {
		return nil
	}
	var out []int
	for _, p := range r.suppPositions(id) {
		if r.Ports.Class[p] == ClassKey {
			out = append(out, r.inputs[p])
		}
	}
	return out
}

// KeyOnly reports whether gate id's support is nonempty and lies wholly in
// the key class: its value is fixed once the key is chosen — an opaque
// constant under any particular key.
func (r *Result) KeyOnly(id int) bool {
	if !r.Ports.Partitioned || len(r.Ports.KeyInputs) == 0 {
		return false
	}
	f := &r.facts[id]
	if f.konst >= 0 {
		return false
	}
	if f.supp < 0 {
		if f.ttn == 0 {
			return false
		}
		for q := 0; q < int(f.ttn); q++ {
			if r.Ports.Class[r.inputPos[f.ttv[q]]] != ClassKey {
				return false
			}
		}
		return true
	}
	return f.supp != emptySet && r.pool.subsetOfClass(f.supp, ClassKey)
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
