// Package extract reverse engineers the irreducible polynomial P(x) of a
// gate-level GF(2^m) multiplier — Algorithm 2 of the paper — and verifies
// the result against a golden specification.
//
// The key fact (Theorem 3): the first out-field product set
// P_m = { a_i·b_j : i+j = m } is the coefficient s_m of x^m in the raw
// product A(x)·B(x); field reduction maps s_m·x^m to s_m·P'(x) with
// P(x) = x^m + P'(x). Hence x^i belongs to P(x) (i < m) exactly when every
// product of P_m appears in the canonical ANF of output bit z_i, and x^m is
// always present. Monomials from distinct partial-product sums s_k never
// collide (a_i·b_j lives only in s_{i+j}), so the membership test is exact
// regardless of how higher s_k fold in.
//
// Verification builds the specification ANF of every output bit directly
// from the recovered P(x) — the "golden implementation constructed using the
// extracted irreducible polynomial" of the paper — and compares it with the
// extracted ANF. ANF is canonical, so this comparison is a complete
// equivalence check, not a sampling test; a random-simulation cross-check is
// available separately for defense in depth.
package extract

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Sentinel errors; use errors.Is against them.
var (
	// ErrNotMultiplier means the netlist's output expressions do not carry
	// the out-field product set the way any GF(2^m) multiplier must.
	ErrNotMultiplier = errors.New("extract: netlist does not look like a GF(2^m) multiplier")
	// ErrNotIrreducible means a candidate P(x) was recovered but is
	// reducible, so the netlist cannot be a field multiplier for it.
	ErrNotIrreducible = errors.New("extract: recovered polynomial is not irreducible")
	// ErrMismatch means the netlist function deviates from the golden
	// specification built from the recovered P(x) (a bug or a tampered
	// design).
	ErrMismatch = errors.New("extract: netlist does not match golden specification")
	// ErrBadPorts means operand inputs could not be identified.
	ErrBadPorts = errors.New("extract: cannot identify multiplier operand ports")
)

// Options configures extraction.
type Options struct {
	// Threads is the rewriting worker-pool size (0 = GOMAXPROCS).
	Threads int
	// PrefixA/PrefixB are the input-name prefixes of the two operands.
	// Defaults: "a" and "b". When names don't parse, the first m inputs are
	// taken as operand A and the next m as operand B, in port order.
	PrefixA, PrefixB string
	// SkipVerify skips the golden-model equivalence check (extraction only,
	// as in the paper's runtime tables). The diagnosis path (Tolerate > 0
	// or Diagnose) ignores it: consensus arbitration IS the verification.
	SkipVerify bool
	// Recorder receives telemetry for the whole pipeline: the cone-index /
	// rewrite / extract / golden-model / verify phase spans, per-bit
	// rewriting events, and the metrics registry. nil disables
	// instrumentation at negligible cost.
	Recorder *obs.Recorder

	// Ctx cancels the whole extraction cooperatively. nil = Background.
	Ctx context.Context
	// ConeDeadline bounds the wall time of each output cone's rewriting;
	// see rewrite.Options.ConeDeadline.
	ConeDeadline time.Duration
	// BudgetTerms caps the live terms per cone; see
	// rewrite.Options.BudgetTerms. Exceeding it surfaces as
	// rewrite.ErrBudgetExceeded (strict path) or a failed cone the
	// diagnosis path can tolerate.
	BudgetTerms int
	// Tolerate enables consensus extraction: up to this many output cones
	// may fail (budget/timeout/panic) or disagree with the recovered P(x)
	// (tampering) while extraction still succeeds. 0 keeps the paper's
	// strict all-or-nothing behavior.
	Tolerate int
	// Diagnose requests a full Diagnosis (per-bit states plus the ranked
	// suspect-gate set) even when Tolerate is 0.
	Diagnose bool

	// Checkpoint, when non-nil, persists per-cone rewriting progress into
	// the manager's directory as the run proceeds, so a crash or interrupt
	// loses at most the in-flight cones. See package checkpoint.
	Checkpoint *checkpoint.Manager
	// Resume restores completed cones from the manager's snapshot (content
	// hash validated against the netlist) before rewriting starts; only
	// pending or failed cones are re-rewritten, and the reused count is
	// surfaced in Extraction.Rewrite.Reused. Without a snapshot on disk
	// the run simply starts cold.
	Resume bool

	// Preflight runs the netlint static analyzer before rewriting starts.
	// Error-level findings (cycle-adjacent damage, impossible I/O shape,
	// unparseable structure) abort with an error wrapping
	// netlint.ErrFindings; the report rides back on Extraction.Lint either
	// way. On a clean pass the cone-cost predictor fills BudgetTerms and
	// ConeDeadline when the caller left them at zero.
	Preflight bool
}

// governedRewriteOptions translates the extraction options into the rewrite
// engine's governance knobs. keepPartial is set on the diagnosis path, where
// failed cones are data rather than fatal.
func (o Options) governedRewriteOptions(keepPartial bool) rewrite.Options {
	ro := rewrite.Options{
		Threads: o.Threads, Recorder: o.Recorder,
		Ctx: o.Ctx, ConeDeadline: o.ConeDeadline, BudgetTerms: o.BudgetTerms,
	}
	if keepPartial {
		ro.KeepPartial = true
		ro.MaxFailures = o.Tolerate
	}
	return ro
}

// Extraction is the result of reverse engineering a multiplier netlist.
type Extraction struct {
	// P is the recovered irreducible polynomial.
	P gf2poly.Poly
	// M is the field extension degree (= number of output bits).
	M int
	// AInputs, BInputs hold the operand input gate IDs, LSB first.
	AInputs, BInputs []int
	// Rewrite carries the per-bit expressions and cost statistics.
	Rewrite *rewrite.Result
	// Verified records whether the golden-model check ran and passed.
	Verified bool
	// Diag carries the fault diagnosis when extraction ran with
	// Options.Tolerate > 0 or Options.Diagnose; nil on the strict path.
	Diag *Diagnosis
	// Lint carries the preflight static-analysis report when extraction ran
	// with Options.Preflight; nil otherwise.
	Lint *netlint.Report
}

var portRe = regexp.MustCompile(`^([A-Za-z_]+?)\[?(\d+)\]?$`)

// identifyPorts splits the primary inputs into the two m-bit operands.
func identifyPorts(n *netlist.Netlist, m int, prefixA, prefixB string) (a, b []int, err error) {
	ins := n.Inputs()
	if len(ins) != 2*m {
		return nil, nil, fmt.Errorf("%w: %d inputs for %d outputs (want 2m)", ErrBadPorts, len(ins), m)
	}
	a = make([]int, m)
	b = make([]int, m)
	found := 0
	seen := map[string]bool{}
	for _, id := range ins {
		match := portRe.FindStringSubmatch(n.NameOf(id))
		if match == nil {
			continue
		}
		idx, aerr := strconv.Atoi(match[2])
		if aerr != nil || idx < 0 || idx >= m {
			continue
		}
		var dst []int
		switch match[1] {
		case prefixA:
			dst = a
		case prefixB:
			dst = b
		default:
			continue
		}
		key := match[1] + match[2]
		if seen[key] {
			continue
		}
		seen[key] = true
		dst[idx] = id
		found++
	}
	if found == 2*m {
		return a, b, nil
	}
	// Fall back to positional split.
	copy(a, ins[:m])
	copy(b, ins[m:])
	return a, b, nil
}

// outFieldProducts returns the monomial set P_m = {a_i·b_j : i+j = m}.
func outFieldProducts(a, b []int) []anf.Mono {
	m := len(a)
	ms := make([]anf.Mono, 0, m-1)
	for i := 1; i < m; i++ {
		ms = append(ms, anf.NewMono(anf.Var(a[i]), anf.Var(b[m-i])))
	}
	return ms
}

// IrreduciblePolynomial reverse engineers P(x) from a multiplier netlist.
// The number of primary outputs determines m; inputs must be the two m-bit
// operands.
//
// With Options.Tolerate > 0 or Options.Diagnose the call is routed through
// the fault-tolerant consensus path (see Diagnose); otherwise any failed
// cone or deviating bit is fatal, as in the paper.
func IrreduciblePolynomial(n *netlist.Netlist, opts Options) (ext *Extraction, err error) {
	if opts.Tolerate > 0 || opts.Diagnose {
		ext, _, err := Diagnose(n, opts)
		return ext, err
	}
	if opts.PrefixA == "" {
		opts.PrefixA = "a"
	}
	if opts.PrefixB == "" {
		opts.PrefixB = "b"
	}
	m := len(n.Outputs())
	if m < 2 {
		return nil, fmt.Errorf("%w: %d outputs", ErrNotMultiplier, m)
	}
	// The extraction root span: every phase below (preflight, rewrite with
	// its per-cone children, extract, golden-model, verify) nests under it,
	// so a trace tree reconstructs the whole pipeline from one job.
	root := opts.Recorder.StartSpan("extraction", map[string]int64{"m": int64(m)})
	defer func() {
		if err != nil {
			root.SetStatus("error")
		}
		root.End()
	}()
	lint, err := preflight(n, &opts)
	if err != nil {
		return &Extraction{M: m, Lint: lint}, err
	}
	a, b, err := identifyPorts(n, m, opts.PrefixA, opts.PrefixB)
	if err != nil {
		return nil, err
	}

	rw, err := rewriteCheckpointed(n, opts, false)
	if err != nil {
		return nil, err
	}
	ext = &Extraction{M: m, AInputs: a, BInputs: b, Rewrite: rw, Lint: lint}

	// Note: the out-field product set {a_i·b_j : i+j=m} is invariant under
	// swapping the two operands (monomials are unordered), so extraction is
	// insensitive to which operand is which — only the bit order within each
	// operand matters.
	span := opts.Recorder.StartSpan("extract", map[string]int64{"m": int64(m)})
	ext.P, err = FromExpressions(rw, a, b)
	span.End()
	if err != nil {
		return nil, err
	}
	if err := finalizeCheckpoint(opts, ext); err != nil {
		return ext, err
	}

	if !opts.SkipVerify {
		if err := verifyObserved(n, ext, opts.Recorder); err != nil {
			return ext, err
		}
		ext.Verified = true
	}
	return ext, nil
}

// FromExpressions runs Algorithm 2 on already-rewritten output expressions:
// P(x) = x^m + Σ { x^i : P_m ⊆ EXP_i }.
func FromExpressions(rw *rewrite.Result, a, b []int) (gf2poly.Poly, error) {
	m := len(rw.Bits)
	pm := outFieldProducts(a, b)
	p := gf2poly.Monomial(m)
	for i, br := range rw.Bits {
		if br.Expr.ContainsAll(pm) {
			p = p.Add(gf2poly.Monomial(i))
		}
	}
	// Any irreducible polynomial has the constant term x^0; its absence
	// means the out-field products never landed where a field reduction
	// would put them.
	if p.Coeff(0) != 1 {
		return gf2poly.Poly{}, fmt.Errorf("%w: out-field product set missing from output bit 0", ErrNotMultiplier)
	}
	if !p.Irreducible() {
		return gf2poly.Poly{}, fmt.Errorf("%w: %v factors as %s", ErrNotIrreducible, p, factorString(p))
	}
	return p, nil
}

// factorString renders the irreducible factorization of p for diagnostics,
// e.g. "(x+1)^2·(x^2+x+1)".
func factorString(p gf2poly.Poly) string {
	var parts []string
	for _, f := range p.Factorize(rand.New(rand.NewSource(1))) {
		s := "(" + f.P.String() + ")"
		if f.Mult > 1 {
			s += fmt.Sprintf("^%d", f.Mult)
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return p.String()
	}
	return strings.Join(parts, "·")
}

// SpecificationANF returns the golden ANF of output bit c of a GF(2^m)
// multiplier with polynomial p over the given operand input IDs:
// Σ_k [x^k mod p has coefficient c] · s_k, with s_k = Σ_{i+j=k} a_i·b_j.
func SpecificationANF(p gf2poly.Poly, a, b []int, c int) anf.Poly {
	m := p.Deg()
	spec := anf.NewPoly()
	for k := 0; k <= 2*m-2; k++ {
		red := gf2poly.Monomial(k).Mod(p)
		if red.Coeff(c) != 1 {
			continue
		}
		for i := 0; i < m; i++ {
			j := k - i
			if j < 0 || j >= m {
				continue
			}
			spec.Toggle(anf.NewMono(anf.Var(a[i]), anf.Var(b[j])))
		}
	}
	return spec
}

// Verify compares every extracted output expression with the golden
// specification derived from ext.P — a complete equivalence check thanks to
// ANF canonicity. On failure it returns ErrMismatch wrapped with the list of
// deviating bits, which is how tampered (trojaned) multipliers surface.
func Verify(n *netlist.Netlist, ext *Extraction) error {
	return verifyObserved(n, ext, nil)
}

// verifyObserved is Verify with the golden-model build and the canonical
// comparison bracketed in separate phase spans.
func verifyObserved(n *netlist.Netlist, ext *Extraction, rec *obs.Recorder) error {
	span := rec.StartSpan("golden-model", map[string]int64{"bits": int64(len(ext.Rewrite.Bits))})
	specs := make([]anf.Poly, len(ext.Rewrite.Bits))
	for c := range ext.Rewrite.Bits {
		specs[c] = SpecificationANF(ext.P, ext.AInputs, ext.BInputs, c)
	}
	span.End()

	span = rec.StartSpan("verify", nil)
	var bad []int
	for c, br := range ext.Rewrite.Bits {
		if !br.Expr.Equal(specs[c]) {
			bad = append(bad, c)
		}
	}
	span.End()
	if len(bad) > 0 {
		return fmt.Errorf("%w: output bits %v deviate from GF(2^%d) multiplication mod %v",
			ErrMismatch, bad, ext.M, ext.P)
	}
	return nil
}

// SimulationCrossCheck simulates the netlist against software field
// multiplication mod ext.P on trials×64 random vectors. It complements the
// formal Verify as an end-to-end sanity path that does not depend on the
// rewriting engine at all.
func SimulationCrossCheck(n *netlist.Netlist, ext *Extraction, trials int, seed int64) error {
	m := ext.M
	ins := n.Inputs()
	pos := make(map[int]int, len(ins)) // gate ID -> input word index
	for i, id := range ins {
		pos[id] = i
	}
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		words := make([]uint64, len(ins))
		for i := range words {
			words[i] = r.Uint64()
		}
		vals, err := n.Simulate(words)
		if err != nil {
			return err
		}
		outs := n.OutputWords(vals)
		for lane := 0; lane < 64; lane++ {
			var aTerms, bTerms []int
			for i := 0; i < m; i++ {
				if words[pos[ext.AInputs[i]]]>>uint(lane)&1 == 1 {
					aTerms = append(aTerms, i)
				}
				if words[pos[ext.BInputs[i]]]>>uint(lane)&1 == 1 {
					bTerms = append(bTerms, i)
				}
			}
			av := gf2poly.FromTerms(aTerms...)
			bv := gf2poly.FromTerms(bTerms...)
			want := av.MulMod(bv, ext.P)
			for c := 0; c < m; c++ {
				got := outs[c]>>uint(lane)&1 == 1
				if got != (want.Coeff(c) == 1) {
					return fmt.Errorf("%w: simulation deviates at trial %d lane %d bit %d",
						ErrMismatch, trial, lane, c)
				}
			}
		}
	}
	return nil
}

// VerifyAgainst checks a netlist against a KNOWN irreducible polynomial —
// the classical verification problem (the paper's reference [1] setting,
// where P(x) is given). It rewrites the outputs and compares them with the
// golden specification for p; no extraction is involved, so it also works
// for netlists whose P(x) the caller obtained elsewhere.
func VerifyAgainst(n *netlist.Netlist, p gf2poly.Poly, opts Options) (ext *Extraction, err error) {
	if opts.PrefixA == "" {
		opts.PrefixA = "a"
	}
	if opts.PrefixB == "" {
		opts.PrefixB = "b"
	}
	m := len(n.Outputs())
	if p.Deg() != m {
		return nil, fmt.Errorf("extract: polynomial degree %d != output count %d", p.Deg(), m)
	}
	if !p.Irreducible() {
		return nil, fmt.Errorf("%w: %v factors as %s", ErrNotIrreducible, p, factorString(p))
	}
	root := opts.Recorder.StartSpan("extraction", map[string]int64{"m": int64(m)})
	defer func() {
		if err != nil {
			root.SetStatus("error")
		}
		root.End()
	}()
	lint, err := preflight(n, &opts)
	if err != nil {
		return &Extraction{M: m, Lint: lint}, err
	}
	a, b, err := identifyPorts(n, m, opts.PrefixA, opts.PrefixB)
	if err != nil {
		return nil, err
	}
	rw, err := rewriteCheckpointed(n, opts, false)
	if err != nil {
		return nil, err
	}
	ext = &Extraction{P: p, M: m, AInputs: a, BInputs: b, Rewrite: rw, Lint: lint}
	if err := verifyObserved(n, ext, opts.Recorder); err != nil {
		return ext, err
	}
	ext.Verified = true
	if err := finalizeCheckpoint(opts, ext); err != nil {
		return ext, err
	}
	return ext, nil
}
