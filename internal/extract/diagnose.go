// Consensus extraction and trojan localization.
//
// Algorithm 2 decides each coefficient of P(x) from one output bit alone:
// x^i ∈ P(x) iff the out-field product set P_m appears in the ANF of z_i
// (Theorem 3). That per-bit independence means a damaged or tampered
// netlist does not have to kill extraction: every healthy bit casts a vote,
// failed cones abstain, and structurally suspicious bits may have their
// votes overridden. Candidate polynomials are arbitrated by the golden
// model: because ANF is canonical, the true P(x) deviates only on the
// actually-tampered bits, while a wrong P(x) rewrites the reduction network
// and deviates almost everywhere — a sharp separation.
//
// Localization exploits the same canonicity. The diff Expr_i + spec_i is
// the exact error function of bit i over the primary inputs; evaluating it
// bit-parallel yields the test vectors on which bit i misbehaves, and a
// suspect gate is one whose forced complement on exactly those vectors
// repairs the output (sensitization). Fanin-cone intersection over the
// deviating bits supplies the structural prior.
package extract

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// ErrConsensus means no irreducible polynomial is consistent with the
// surviving output bits within the configured fault tolerance — either too
// much of the netlist is damaged or it is not a GF(2^m) multiplier.
var ErrConsensus = errors.New("extract: consensus extraction failed to determine P(x)")

// BitState classifies one output bit in a Diagnosis.
type BitState string

const (
	BitOK        BitState = "ok"        // cone completed and matches the recovered P(x)
	BitTampered  BitState = "tampered"  // cone completed but deviates from the golden model
	BitBudget    BitState = "budget"    // cone aborted by the term budget
	BitTimeout   BitState = "timeout"   // cone aborted by the per-cone deadline
	BitPanic     BitState = "panic"     // cone worker panicked (contained)
	BitCancelled BitState = "cancelled" // cone cancelled as collateral of another failure
	BitError     BitState = "error"     // any other cone failure
)

// BitDiagnosis is the per-output-bit verdict.
type BitDiagnosis struct {
	Bit    int      `json:"bit"`
	Name   string   `json:"name"`
	State  BitState `json:"state"`
	Detail string   `json:"detail,omitempty"` // cone error or deviation size
}

// Suspect is one candidate trojan location.
type Suspect struct {
	Gate int    `json:"gate"`
	Name string `json:"name,omitempty"`
	// CorrectRate is the fraction of deviating test vectors repaired by
	// forcing this gate's complement on exactly those vectors; 1.0 means
	// the fault is fully explained by a stuck inversion here or on its
	// sensitized path. -1 when flip simulation did not reach this gate
	// (e.g. it only appears in budget-failed cones).
	CorrectRate float64 `json:"correct_rate"`
	// Structural is the fanin-cone-intersection prior: the fraction of
	// deviating bits whose cone contains the gate minus the fraction of
	// healthy bits whose cone does.
	Structural float64 `json:"structural"`
	// TamperedCones / CleanCones count the cone memberships behind
	// Structural.
	TamperedCones int `json:"tampered_cones"`
	CleanCones    int `json:"clean_cones"`
}

// Diagnosis is the outcome of fault-tolerant extraction.
type Diagnosis struct {
	// P is the recovered polynomial (string form), "" when consensus
	// failed.
	P         string `json:"p,omitempty"`
	Recovered bool   `json:"recovered"`
	Tolerate  int    `json:"tolerate"`
	// Faults = failed cones + tampered bits; Recovered extractions with
	// Faults == 0 are fully verified.
	Faults      int            `json:"faults"`
	Tampered    []int          `json:"tampered,omitempty"`     // completed bits deviating from the golden model
	FailedCones []int          `json:"failed_cones,omitempty"` // bits whose cones never completed
	Bits        []BitDiagnosis `json:"bits"`
	// Suspects is the ranked candidate-trojan list; the planted gate or
	// its sensitized fanout ranks at the top (CorrectRate 1.0).
	Suspects []Suspect `json:"suspects,omitempty"`
	// CandidatesTried counts polynomial candidates arbitrated against the
	// golden model during consensus.
	CandidatesTried int `json:"candidates_tried"`
}

// maxFlipCoords bounds the candidate-coefficient search: the consensus
// enumerates subsets of at most this many uncertain coefficient positions
// (failed cones first, then structurally anomalous bits).
const maxFlipCoords = 16

// maxSuspects bounds the ranked suspect list in a Diagnosis.
const maxSuspects = 64

// Diagnose reverse engineers P(x) from a possibly damaged or trojaned
// multiplier netlist, tolerating up to opts.Tolerate failed or deviating
// output cones, and localizes the damage. It always returns a Diagnosis
// (even on error, with whatever was learned); the Extraction is non-nil
// whenever rewriting produced usable bits.
func Diagnose(n *netlist.Netlist, opts Options) (ext *Extraction, _ *Diagnosis, err error) {
	if opts.PrefixA == "" {
		opts.PrefixA = "a"
	}
	if opts.PrefixB == "" {
		opts.PrefixB = "b"
	}
	m := len(n.Outputs())
	diag := &Diagnosis{Tolerate: opts.Tolerate}
	if m < 2 {
		return nil, diag, fmt.Errorf("%w: %d outputs", ErrNotMultiplier, m)
	}
	// Root span for the fault-tolerant pipeline; same name as the strict
	// path so trace consumers see one "extraction" tree either way.
	root := opts.Recorder.StartSpan("extraction", map[string]int64{
		"m": int64(m), "tolerate": int64(opts.Tolerate),
	})
	defer func() {
		if err != nil {
			root.SetStatus("error")
		}
		root.End()
	}()
	lint, err := preflight(n, &opts)
	if err != nil {
		return &Extraction{M: m, Lint: lint}, diag, err
	}
	a, b, err := identifyPorts(n, m, opts.PrefixA, opts.PrefixB)
	if err != nil {
		return nil, diag, err
	}

	rw, rwErr := rewriteCheckpointed(n, opts, true)
	if rw != nil {
		diag.Bits = bitDiagnoses(rw)
		diag.FailedCones = append([]int(nil), rw.Failed...)
	}
	if rwErr != nil {
		// Run-level failure: tolerance exceeded, caller context ended, or
		// a structural error. The partial per-bit picture still tells the
		// operator which cones died and why.
		return nil, diag, rwErr
	}
	ext = &Extraction{M: m, AInputs: a, BInputs: b, Rewrite: rw, Diag: diag, Lint: lint}

	rec := opts.Recorder
	span := rec.StartSpan("consensus", map[string]int64{
		"m": int64(m), "tolerate": int64(opts.Tolerate), "failed": int64(len(rw.Failed)),
	})
	p, tampered, tried, err := consensusP(rw, a, b, opts.Tolerate)
	span.End()
	diag.CandidatesTried = tried
	if err != nil {
		return ext, diag, err
	}
	ext.P = p
	diag.P = p.String()
	diag.Recovered = true
	diag.Tampered = tampered
	for _, i := range tampered {
		diag.Bits[i].State = BitTampered
	}
	diag.Faults = len(rw.Failed) + len(tampered)
	if diag.Faults == 0 {
		ext.Verified = true
		if err := finalizeCheckpoint(opts, ext); err != nil {
			return ext, diag, err
		}
		return ext, diag, nil
	}

	span = rec.StartSpan("localize", map[string]int64{"deviating": int64(diag.Faults)})
	diag.Suspects = localize(n, ext, diag)
	span.End()
	if err := finalizeCheckpoint(opts, ext); err != nil {
		return ext, diag, err
	}
	return ext, diag, nil
}

// bitDiagnoses converts rewrite statuses into the per-bit verdicts;
// tampering verdicts are refined later, once P(x) is known.
func bitDiagnoses(rw *rewrite.Result) []BitDiagnosis {
	out := make([]BitDiagnosis, len(rw.Bits))
	for i, br := range rw.Bits {
		bd := BitDiagnosis{Bit: i, Name: br.Name, State: BitOK, Detail: br.Err}
		switch br.Status {
		case rewrite.StatusBudget:
			bd.State = BitBudget
		case rewrite.StatusTimeout:
			bd.State = BitTimeout
		case rewrite.StatusPanic:
			bd.State = BitPanic
		case rewrite.StatusCancelled:
			bd.State = BitCancelled
		default:
			if br.Status.Failed() {
				bd.State = BitError
			}
		}
		out[i] = bd
	}
	return out
}

// consensusP recovers P(x) by per-bit voting plus golden-model arbitration.
// It returns the polynomial, the completed bits that deviate from it
// (tampered), and the number of candidates tried.
func consensusP(rw *rewrite.Result, a, b []int, tol int) (gf2poly.Poly, []int, int, error) {
	m := len(rw.Bits)
	pm := outFieldProducts(a, b)
	failed := rw.Failed
	if len(failed) > tol {
		return gf2poly.Poly{}, nil, 0, fmt.Errorf("%w: %d cones failed, tolerate %d", ErrConsensus, len(failed), tol)
	}

	// Base candidate: x^m plus every completed bit's membership vote
	// (Algorithm 2 restricted to the surviving cones).
	base := gf2poly.Monomial(m)
	for i, br := range rw.Bits {
		if br.Status.Failed() {
			continue
		}
		if br.Expr.ContainsAll(pm) {
			base = base.Add(gf2poly.Monomial(i))
		}
	}

	// Uncertain coefficient positions: failed cones abstained, and
	// structurally anomalous bits may have voted under duress.
	coords := append([]int(nil), failed...)
	inCoords := map[int]bool{}
	for _, i := range coords {
		inCoords[i] = true
	}
	for _, i := range anomalousBits(rw, a, b) {
		if len(coords) >= maxFlipCoords {
			break
		}
		if !inCoords[i] {
			inCoords[i] = true
			coords = append(coords, i)
		}
	}

	// Arbitrate every candidate base ⊕ {x^i : i ∈ S}, S ⊆ coords, |S| ≤
	// tol, smallest subsets first. Feasible = irreducible and deviating on
	// at most tol - |failed| completed bits; a flipped completed
	// coefficient lands in the deviation set automatically, so the bound
	// covers it. Optimal = fewest total faults; two distinct optima mean
	// the surviving bits genuinely underdetermine P(x).
	allowance := tol - len(failed)
	type candidate struct {
		p      gf2poly.Poly
		dev    []int
		faults int
	}
	var best []candidate
	tried := 0
	maxPick := tol
	if maxPick > len(coords) {
		maxPick = len(coords)
	}
	for size := 0; size <= maxPick; size++ {
		forEachSubset(len(coords), size, func(pick []int) {
			p := base
			for _, ci := range pick {
				p = p.Add(gf2poly.Monomial(coords[ci]))
			}
			tried++
			if p.Coeff(0) != 1 || !p.Irreducible() {
				return
			}
			dev, ok := deviations(rw, a, b, p, allowance)
			if !ok {
				return
			}
			c := candidate{p: p, dev: dev, faults: len(failed) + len(dev)}
			switch {
			case len(best) == 0 || c.faults < best[0].faults:
				best = []candidate{c}
			case c.faults == best[0].faults:
				best = append(best, c)
			}
		})
	}
	if len(best) == 0 {
		return gf2poly.Poly{}, nil, tried, fmt.Errorf(
			"%w: no irreducible polynomial within tolerance %d (%d candidates tried)", ErrConsensus, tol, tried)
	}
	if len(best) > 1 {
		return gf2poly.Poly{}, nil, tried, fmt.Errorf(
			"%w: ambiguous — %d polynomials tie at %d faults (first two: %v, %v)",
			ErrConsensus, len(best), best[0].faults, best[0].p, best[1].p)
	}
	return best[0].p, best[0].dev, tried, nil
}

// forEachSubset calls fn with every size-k subset of {0..n-1}, in
// lexicographic order; pick is reused across calls.
func forEachSubset(n, k int, fn func(pick []int)) {
	pick := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			fn(pick)
			return
		}
		for i := start; i <= n-(k-idx); i++ {
			pick[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
}

// deviations compares every completed bit with the golden model for p,
// giving up once more than allowance bits deviate. The abort makes wrong
// candidates cheap: an incorrect P(x) rewrites the whole reduction network,
// so nearly every bit deviates and the scan stops after allowance+1 specs.
func deviations(rw *rewrite.Result, a, b []int, p gf2poly.Poly, allowance int) ([]int, bool) {
	var dev []int
	for i, br := range rw.Bits {
		if br.Status.Failed() {
			continue
		}
		if !br.Expr.Equal(SpecificationANF(p, a, b, i)) {
			dev = append(dev, i)
			if len(dev) > allowance {
				return nil, false
			}
		}
	}
	return dev, true
}

// anomalousBits flags completed bits whose ANF violates the structure every
// GF(2^m) multiplier output must have — without knowing P(x):
//
//   - every monomial is a bilinear a_j·b_k product;
//   - each partial-product sum s_k = Σ_{i+j=k} a_i·b_j appears either in
//     full or not at all (monomials from distinct s_k never collide, so
//     reduction folds whole sums — partial presence is impossible);
//   - the in-field sums are fixed: s_i present in full, s_k (k < m, k ≠ i)
//     absent (x^k needs no reduction below degree m).
//
// The completeness checks are what make vote corruption visible: deleting a
// single out-field product from a bit flips its Algorithm 2 vote while
// keeping every monomial bilinear, but leaves s_m partially present.
// Bits are returned most-violating first.
func anomalousBits(rw *rewrite.Result, a, b []int) []int {
	m := len(a)
	inA := make(map[anf.Var]bool, len(a))
	inB := make(map[anf.Var]bool, len(b))
	for _, id := range a {
		inA[anf.Var(id)] = true
	}
	for _, id := range b {
		inB[anf.Var(id)] = true
	}
	type anomaly struct{ bit, viol int }
	var anomalies []anomaly
	for i, br := range rw.Bits {
		if br.Status.Failed() {
			continue
		}
		viol := 0
		for _, mo := range br.Expr.Monos() {
			vars := mo.Vars()
			if len(vars) != 2 || !(inA[vars[0]] && inB[vars[1]] || inA[vars[1]] && inB[vars[0]]) {
				viol++
			}
		}
		for k := 0; k <= 2*m-2; k++ {
			have, total := 0, 0
			for j := 0; j < m; j++ {
				if k-j < 0 || k-j >= m {
					continue
				}
				total++
				if br.Expr.Contains(anf.NewMono(anf.Var(a[j]), anf.Var(b[k-j]))) {
					have++
				}
			}
			switch {
			case have != 0 && have != total:
				viol++
			case k == i && have != total:
				viol++
			case k < m && k != i && have != 0:
				viol++
			}
		}
		if viol > 0 {
			anomalies = append(anomalies, anomaly{i, viol})
		}
	}
	sort.Slice(anomalies, func(x, y int) bool {
		if anomalies[x].viol != anomalies[y].viol {
			return anomalies[x].viol > anomalies[y].viol
		}
		return anomalies[x].bit < anomalies[y].bit
	})
	out := make([]int, len(anomalies))
	for i, an := range anomalies {
		out[i] = an.bit
	}
	return out
}

// localizeTrials is the number of 64-vector simulation rounds used by the
// sensitization refinement.
const localizeTrials = 4

// localize ranks candidate trojan gates. Structural prior: a gate scores by
// appearing in deviating bits' fanin cones and not in healthy ones.
// Sensitization refinement: for each tampered bit the exact deviating test
// vectors come from evaluating the ANF diff, and each cone gate is force-
// complemented on precisely those vectors — gates on the fault's sensitized
// path repair all of them (CorrectRate 1.0).
func localize(n *netlist.Netlist, ext *Extraction, diag *Diagnosis) []Suspect {
	outs := n.Outputs()
	devBits := append(append([]int(nil), diag.Tampered...), diag.FailedCones...)
	var cleanBits []int
	for i, bd := range diag.Bits {
		if bd.State == BitOK {
			cleanBits = append(cleanBits, i)
		}
	}

	// Structural prior from the cone index: a gate's membership row masked
	// with the deviating bits names its tampered cones, masked with the
	// clean bits counts its clean ones.
	cHits := make([]int, n.NumGates())
	coneBits := map[int][]int{}  // candidate gate -> deviating bits whose cone holds it
	coneGates := map[int][]int{} // deviating bit -> candidate gates in its cone
	n.ConeMembership(func(base int, rows []uint64) {
		devMask, cleanMask := blockMask(devBits, base), blockMask(cleanBits, base)
		for id, row := range rows {
			cHits[id] += bits.OnesCount64(row & cleanMask)
			dev := row & devMask
			if dev == 0 {
				continue
			}
			if t := n.Gate(id).Type; t == netlist.Input || t == netlist.Const0 || t == netlist.Const1 {
				continue
			}
			for ; dev != 0; dev &= dev - 1 {
				bit := base + bits.TrailingZeros64(dev)
				coneBits[id] = append(coneBits[id], bit)
				coneGates[bit] = append(coneGates[bit], id)
			}
		}
	})

	corrected := map[int]int{}
	attempted := map[int]int{}
	ins := n.Inputs()
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < localizeTrials; trial++ {
		words := make([]uint64, len(ins))
		wordOf := make(map[anf.Var]uint64, len(ins))
		for i, id := range ins {
			words[i] = r.Uint64()
			wordOf[anf.Var(id)] = words[i]
		}
		vals, err := n.Simulate(words)
		if err != nil {
			break
		}
		for _, bit := range diag.Tampered {
			br := ext.Rewrite.Bits[bit]
			diff := br.Expr.Add(SpecificationANF(ext.P, ext.AInputs, ext.BInputs, bit))
			mask := evalMask(diff, wordOf)
			if mask == 0 {
				continue // no deviating vector in this round
			}
			want := vals[outs[bit]] ^ mask // the spec's response on deviating lanes
			for _, id := range coneGates[bit] {
				fv, err := n.SimulateXor(words, map[int]uint64{id: mask})
				if err != nil {
					continue
				}
				fixed := ^(fv[outs[bit]] ^ want) & mask
				corrected[id] += bits.OnesCount64(fixed)
				attempted[id] += bits.OnesCount64(mask)
			}
		}
	}

	suspects := make([]Suspect, 0, len(coneBits))
	for id, devs := range coneBits {
		th := len(devs)
		s := Suspect{Gate: id, Name: n.NameOf(id), TamperedCones: th, CleanCones: cHits[id], CorrectRate: -1}
		s.Structural = float64(th) / float64(len(devBits))
		if len(cleanBits) > 0 {
			s.Structural -= float64(cHits[id]) / float64(len(cleanBits))
		}
		if attempted[id] > 0 {
			s.CorrectRate = float64(corrected[id]) / float64(attempted[id])
		}
		suspects = append(suspects, s)
	}
	rank := func(x, y Suspect) bool {
		if x.CorrectRate != y.CorrectRate {
			return x.CorrectRate > y.CorrectRate
		}
		if x.Structural != y.Structural {
			return x.Structural > y.Structural
		}
		return x.Gate > y.Gate
	}
	sort.Slice(suspects, func(x, y int) bool { return rank(suspects[x], suspects[y]) })
	if len(suspects) > maxSuspects {
		// Cap with per-cone fairness: the sensitized spine of one large cone
		// can fill the whole list with CorrectRate-1.0 ties, hiding every
		// suspect of the other tampered cones. Each deviating cone keeps its
		// best few suspects first; the remainder fills in global rank order.
		quota := maxSuspects / len(devBits)
		if quota < 1 {
			quota = 1
		}
		taken := make(map[int]bool, maxSuspects)
		per := map[int]int{}
		var out []Suspect
		for _, s := range suspects {
			need := false
			for _, b := range coneBits[s.Gate] {
				if per[b] < quota {
					need = true
				}
			}
			if !need {
				continue
			}
			taken[s.Gate] = true
			for _, b := range coneBits[s.Gate] {
				per[b]++
			}
			out = append(out, s)
		}
		for _, s := range suspects {
			if len(out) >= maxSuspects {
				break
			}
			if !taken[s.Gate] {
				taken[s.Gate] = true
				out = append(out, s)
			}
		}
		sort.Slice(out, func(x, y int) bool { return rank(out[x], out[y]) })
		suspects = out
	}
	return suspects
}

// blockMask selects, as a ConeMembership row mask, the output bits of list
// that fall in the 64-output block starting at base.
func blockMask(list []int, base int) uint64 {
	var m uint64
	for _, b := range list {
		if b >= base && b < base+64 {
			m |= 1 << uint(b-base)
		}
	}
	return m
}

// evalMask evaluates an ANF over primary inputs bit-parallel: each input
// variable carries 64 test vectors, the result word holds the polynomial's
// value on every lane.
func evalMask(p anf.Poly, wordOf map[anf.Var]uint64) uint64 {
	var acc uint64
	for _, mo := range p.Monos() {
		w := ^uint64(0)
		for _, v := range mo.Vars() {
			w &= wordOf[v]
		}
		acc ^= w
	}
	return acc
}
