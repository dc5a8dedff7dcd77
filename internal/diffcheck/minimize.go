package diffcheck

import (
	"fmt"
	"math/rand"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
)

// The minimizer shrinks a netlist that functionally deviates from the
// planted GF(2^m) specification into a near-minimal repro while keeping the
// ORIGINAL buggy behavior intact — it never trades the real failure for a
// trivially-broken circuit (the classic test-case-slippage pitfall):
//
//  1. pick the deviating output bit with the smallest logic cone and drop
//     every other output (cone restriction);
//  2. repeatedly try replacing each gate with one of its fanins or a
//     constant, accepting only replacements that are observationally
//     equivalent on a test-vector battery (exhaustive for small input
//     counts), so the kept output's function — including the deviation
//     witness — is preserved exactly;
//  3. cofactor: pin live primary inputs to constant 0 one at a time — this
//     DOES change the kept function, so each pin is accepted only when the
//     kept output still deviates from the correspondingly cofactored
//     specification (looseResolve treats an absent operand bit as 0; pinning
//     to 1 is never attempted because it would fabricate deviations) — and
//     re-run step 2 on the smaller cofactor;
//  4. drop primary inputs the remaining cone no longer reads, re-checking
//     after each drop that the deviation survives.
//
// The result is written by campaign runs as a committed-style .eqn repro.

// MinimizeOptions configures Minimize.
type MinimizeOptions struct {
	// P is the planted irreducible polynomial.
	P gf2poly.Poly
	// Binding names the multiplier ports in the failing netlist.
	Binding Binding
	// Seed drives the sampled battery when inputs are too many to enumerate.
	Seed int64
	// Words is the sampled-battery size in 64-vector words (default 64;
	// ignored when the input count permits exhaustive enumeration).
	Words int
}

// exhaustiveLimit is the input count up to which batteries enumerate all
// 2^k vectors, making the equivalence checks exact. 16 covers both operands
// of the GF(2^8) designs the repro tests shrink.
const exhaustiveLimit = 16

// battery is a set of simulation input batches: batch b assigns word
// words[b][i] to input port i; only the first lanes[b] lanes are valid.
type battery struct {
	words [][]uint64
	lanes []int
}

func makeBattery(numInputs int, seed int64, sampled int) battery {
	if sampled <= 0 {
		sampled = 64
	}
	var bt battery
	if numInputs <= exhaustiveLimit {
		total := 1 << uint(numInputs)
		for base := 0; base < total; base += 64 {
			w := make([]uint64, numInputs)
			lanes := total - base
			if lanes > 64 {
				lanes = 64
			}
			for lane := 0; lane < lanes; lane++ {
				v := base + lane
				for i := 0; i < numInputs; i++ {
					if v>>uint(i)&1 == 1 {
						w[i] |= 1 << uint(lane)
					}
				}
			}
			bt.words = append(bt.words, w)
			bt.lanes = append(bt.lanes, lanes)
		}
		return bt
	}
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < sampled; b++ {
		w := make([]uint64, numInputs)
		for i := range w {
			w[i] = r.Uint64()
		}
		bt.words = append(bt.words, w)
		bt.lanes = append(bt.lanes, 64)
	}
	return bt
}

// specTable precomputes, per logical output bit c, the (i, j) operand-bit
// pairs whose product a_i·b_j feeds bit c of A·B mod P — the bit-parallel
// form of extract.SpecificationANF.
func specTable(p gf2poly.Poly) [][][2]int {
	m := p.Deg()
	tab := make([][][2]int, m)
	for k := 0; k <= 2*m-2; k++ {
		red := gf2poly.Monomial(k).Mod(p)
		for c := 0; c < m; c++ {
			if red.Coeff(c) != 1 {
				continue
			}
			lo := k - m + 1
			if lo < 0 {
				lo = 0
			}
			hi := k
			if hi > m-1 {
				hi = m - 1
			}
			for i := lo; i <= hi; i++ {
				tab[c] = append(tab[c], [2]int{i, k - i})
			}
		}
	}
	return tab
}

// looseResolve maps the binding onto n, tolerating missing ports: a missing
// operand input resolves to port index -1 (its value is taken as constant
// 0, i.e. the specification is cofactored), and a missing output resolves
// to position -1 (that bit is not checked).
func looseResolve(n *netlist.Netlist, bd Binding) (aPort, bPort, outPos []int) {
	ins := n.Inputs()
	portOf := make(map[int]int, len(ins))
	for i, id := range ins {
		portOf[id] = i
	}
	resolveIn := func(names []string) []int {
		out := make([]int, len(names))
		for i, nm := range names {
			out[i] = -1
			if id, ok := n.Lookup(nm); ok {
				if pi, ok := portOf[id]; ok {
					out[i] = pi
				}
			}
		}
		return out
	}
	aPort = resolveIn(bd.A)
	bPort = resolveIn(bd.B)
	posOf := map[string]int{}
	for pos, nm := range n.OutputNames() {
		posOf[nm] = pos
	}
	outPos = make([]int, len(bd.Out))
	for k, nm := range bd.Out {
		outPos[k] = -1
		if pos, ok := posOf[nm]; ok {
			outPos[k] = pos
		}
	}
	return aPort, bPort, outPos
}

// Deviations simulates n on a battery (exhaustive when the input count
// allows) and returns the logical output bits that deviate from
// A(x)·B(x) mod p. Operand bits whose inputs are absent from n are treated
// as constant 0; absent outputs are skipped.
func Deviations(n *netlist.Netlist, p gf2poly.Poly, bd Binding, seed int64) ([]int, error) {
	return deviationsOn(n, p, bd, makeBattery(len(n.Inputs()), seed, 0))
}

func deviationsOn(n *netlist.Netlist, p gf2poly.Poly, bd Binding, bt battery) ([]int, error) {
	aPort, bPort, outPos := looseResolve(n, bd)
	tab := specTable(p)
	deviating := map[int]bool{}
	for bi, words := range bt.words {
		vals, err := n.Simulate(words)
		if err != nil {
			return nil, err
		}
		outs := n.OutputWords(vals)
		mask := ^uint64(0)
		if bt.lanes[bi] < 64 {
			mask = 1<<uint(bt.lanes[bi]) - 1
		}
		opWord := func(ports []int, i int) uint64 {
			if ports[i] < 0 {
				return 0
			}
			return words[ports[i]]
		}
		for c, pos := range outPos {
			if pos < 0 || deviating[c] {
				continue
			}
			var spec uint64
			for _, ij := range tab[c] {
				spec ^= opWord(aPort, ij[0]) & opWord(bPort, ij[1])
			}
			if (outs[pos]^spec)&mask != 0 {
				deviating[c] = true
			}
		}
	}
	var out []int
	for c := range deviating {
		out = append(out, c)
	}
	sortInts(out)
	return out, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// shrinker is the mutable working copy: gates can be redefined to constants
// and references redirected through repl; pack() materializes the live part.
type shrinker struct {
	src     *netlist.Netlist
	gates   []netlist.Gate
	repl    []int // gate substitution; repl[id] == id means "itself"
	inputs  []int // original input IDs in port order
	dropped map[int]bool
	outName string
	outRoot int // original gate ID driving the kept output
}

func newShrinker(n *netlist.Netlist, outName string, outRoot int) *shrinker {
	s := &shrinker{
		src:     n,
		gates:   make([]netlist.Gate, n.NumGates()),
		repl:    make([]int, n.NumGates()),
		inputs:  n.Inputs(),
		dropped: map[int]bool{},
		outName: outName,
		outRoot: outRoot,
	}
	for id := 0; id < n.NumGates(); id++ {
		s.gates[id] = n.Gate(id)
		s.repl[id] = id
	}
	return s
}

func (s *shrinker) resolve(id int) int {
	for s.repl[id] != id {
		id = s.repl[id]
	}
	return id
}

// live returns the set of gate IDs reachable from the kept output through
// the current substitutions.
func (s *shrinker) live() map[int]bool {
	seen := map[int]bool{}
	stack := []int{s.resolve(s.outRoot)}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, f := range s.gates[id].Fanin {
			stack = append(stack, s.resolve(f))
		}
	}
	return seen
}

// pack materializes the current state: all non-dropped inputs (in original
// port order), the live logic cone, and the single kept output.
func (s *shrinker) pack() (*netlist.Netlist, error) {
	out := netlist.New(s.src.Name)
	mapping := make(map[int]int, len(s.gates))
	for _, id := range s.inputs {
		if s.dropped[id] {
			continue
		}
		nid, err := out.AddInput(s.src.NameOf(id))
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	liveSet := s.live()
	for id := 0; id < len(s.gates); id++ {
		if !liveSet[id] || s.resolve(id) != id {
			continue
		}
		g := s.gates[id]
		if g.Type == netlist.Input {
			if _, ok := mapping[id]; !ok {
				return nil, fmt.Errorf("diffcheck: minimizer dropped the live input %q", s.src.NameOf(id))
			}
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			nf, ok := mapping[s.resolve(f)]
			if !ok {
				return nil, fmt.Errorf("diffcheck: minimizer lost fanin of gate %d", id)
			}
			fanin[i] = nf
		}
		var nid int
		var err error
		if g.Type == netlist.Lut {
			nid, err = out.AddLut(g.Table, fanin...)
		} else {
			nid, err = out.AddGate(g.Type, fanin...)
		}
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	root, ok := mapping[s.resolve(s.outRoot)]
	if !ok {
		return nil, fmt.Errorf("diffcheck: minimizer lost the output root")
	}
	if err := out.MarkOutput(s.outName, root); err != nil {
		return nil, err
	}
	return out, nil
}

// outputWords simulates the current state on the battery and returns the
// kept output's word per batch. The battery is indexed by the ORIGINAL
// input port order; dropped inputs read as 0.
func (s *shrinker) outputWords(bt battery) ([]uint64, error) {
	n, err := s.pack()
	if err != nil {
		return nil, err
	}
	// Map battery words onto the packed netlist's (possibly reduced) ports.
	kept := make([]int, 0, len(s.inputs))
	for i, id := range s.inputs {
		if !s.dropped[id] {
			kept = append(kept, i)
		}
	}
	out := make([]uint64, len(bt.words))
	for bi, words := range bt.words {
		in := make([]uint64, len(kept))
		for j, srcIdx := range kept {
			in[j] = words[srcIdx]
		}
		vals, err := n.Simulate(in)
		if err != nil {
			return nil, err
		}
		out[bi] = n.OutputWords(vals)[0]
	}
	return out, nil
}

// mergeBySignature simulates the source netlist on the battery and
// redirects every gate onto the earliest gate with an identical word
// vector. Function-preserving whenever the battery is exhaustive; callers
// with sampled batteries re-validate afterwards.
func (s *shrinker) mergeBySignature(bt battery) error {
	type sigKey string
	first := map[sigKey]int{}
	sigs := make([][]uint64, len(s.gates))
	for bi, words := range bt.words {
		in := make([]uint64, len(s.inputs))
		copy(in, words)
		vals, err := s.src.Simulate(in)
		if err != nil {
			return err
		}
		mask := ^uint64(0)
		if bt.lanes[bi] < 64 {
			mask = 1<<uint(bt.lanes[bi]) - 1
		}
		for id, v := range vals {
			sigs[id] = append(sigs[id], v&mask)
		}
	}
	for id := 0; id < len(s.gates); id++ {
		buf := make([]byte, 0, 8*len(sigs[id]))
		for _, w := range sigs[id] {
			for sh := 0; sh < 64; sh += 8 {
				buf = append(buf, byte(w>>uint(sh)))
			}
		}
		key := sigKey(buf)
		if prev, ok := first[key]; ok {
			s.repl[id] = prev
		} else {
			first[key] = id
		}
	}
	return nil
}

// Minimize shrinks a netlist that deviates from multiplication mod o.P into
// a near-minimal single-output repro with the deviation preserved. It
// returns an error when the netlist does not functionally deviate (e.g. the
// failure was structural, not functional).
func Minimize(n *netlist.Netlist, o MinimizeOptions) (*netlist.Netlist, error) {
	if len(o.Binding.A) == 0 {
		return nil, fmt.Errorf("diffcheck: minimizer needs a port binding")
	}
	fullBt := makeBattery(len(n.Inputs()), o.Seed, o.Words)
	dev, err := deviationsOn(n, o.P, o.Binding, fullBt)
	if err != nil {
		return nil, err
	}
	if len(dev) == 0 {
		return nil, fmt.Errorf("diffcheck: netlist does not deviate from A·B mod %v on the battery", o.P)
	}

	// Cone-restrict to the deviating bit with the smallest cone.
	_, _, outPos := looseResolve(n, o.Binding)
	outs := n.Outputs()
	sizes := n.ConeSizes()
	best, bestCone := -1, 0
	for _, c := range dev {
		cone := sizes[outPos[c]]
		if best < 0 || cone < bestCone {
			best, bestCone = c, cone
		}
	}
	s := newShrinker(n, o.Binding.Out[best], outs[outPos[best]])

	champion, err := s.outputWords(fullBt)
	if err != nil {
		return nil, err
	}
	equivalent := func() bool {
		words, err := s.outputWords(fullBt)
		if err != nil {
			return false
		}
		for bi := range words {
			mask := ^uint64(0)
			if fullBt.lanes[bi] < 64 {
				mask = 1<<uint(fullBt.lanes[bi]) - 1
			}
			if (words[bi]^champion[bi])&mask != 0 {
				return false
			}
		}
		return true
	}

	// Merge battery-equivalent gates first: redirect every live gate onto
	// the earliest gate computing the same word vector (exact for
	// exhaustive batteries). This collapses structural duplicates the
	// fanin/constant shrink below cannot reach.
	if err := s.mergeBySignature(fullBt); err != nil {
		return nil, err
	}
	if !equivalent() {
		// Only possible with a sampled battery that aliased two functions;
		// undo by starting over without the merge.
		s = newShrinker(n, o.Binding.Out[best], outs[outPos[best]])
	}

	// Observational-equivalence gate shrinking to fixpoint.
	shrinkFixpoint := func() {
		for changed := true; changed; {
			changed = false
			liveSet := s.live()
			for id := len(s.gates) - 1; id >= 0; id-- {
				if !liveSet[id] || s.resolve(id) != id {
					continue
				}
				g := s.gates[id]
				if g.Type == netlist.Input {
					continue
				}
				accepted := false
				// Try collapsing onto each fanin first (removes a gate and often
				// a whole subtree), then onto constants.
				for _, f := range g.Fanin {
					s.repl[id] = s.resolve(f)
					if equivalent() {
						accepted = true
						break
					}
					s.repl[id] = id
				}
				if !accepted && g.Type != netlist.Const0 && g.Type != netlist.Const1 {
					for _, ct := range []netlist.GateType{netlist.Const0, netlist.Const1} {
						s.gates[id] = netlist.Gate{Type: ct}
						if equivalent() {
							accepted = true
							break
						}
						s.gates[id] = g
					}
				}
				if accepted {
					changed = true
					liveSet = s.live()
				}
			}
		}
	}
	shrinkFixpoint()

	// Cofactor phase: pin live inputs to constant 0. Unlike the
	// function-preserving shrink above, each pin is guarded by the deviation
	// predicate — the cofactored cone must still disagree with the
	// cofactored specification on the kept output.
	for _, id := range s.inputs {
		if s.dropped[id] || !s.live()[id] {
			continue
		}
		saved := s.gates[id]
		s.gates[id] = netlist.Gate{Type: netlist.Const0}
		s.dropped[id] = true
		keep := false
		if packed, perr := s.pack(); perr == nil {
			if still, derr := Deviations(packed, o.P, o.Binding, o.Seed); derr == nil && len(still) > 0 {
				keep = true
			}
		}
		if !keep {
			s.gates[id] = saved
			delete(s.dropped, id)
			continue
		}
		// The kept function changed: rebase the champion and propagate the
		// new constant through the cone.
		if champion, err = s.outputWords(fullBt); err != nil {
			return nil, err
		}
		shrinkFixpoint()
	}

	// Drop inputs the cone no longer reads, keeping the deviation alive
	// against the cofactored specification.
	liveSet := s.live()
	for _, id := range s.inputs {
		if liveSet[id] {
			continue
		}
		s.dropped[id] = true
		packed, err := s.pack()
		if err != nil {
			s.dropped[id] = false
			continue
		}
		still, err := Deviations(packed, o.P, o.Binding, o.Seed)
		if err != nil || len(still) == 0 {
			delete(s.dropped, id)
		}
	}

	min, err := s.pack()
	if err != nil {
		return nil, err
	}
	still, err := Deviations(min, o.P, o.Binding, o.Seed)
	if err != nil {
		return nil, err
	}
	if len(still) == 0 {
		return nil, fmt.Errorf("diffcheck: minimization lost the deviation (shrink battery too small)")
	}
	return min, nil
}
