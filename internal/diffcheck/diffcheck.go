// Package diffcheck is the differential-testing subsystem: it turns the
// repository's own generators into a correctness oracle for the whole
// reverse-engineering pipeline.
//
// A test case plants a random irreducible P(x), generates a multiplier in a
// random architecture, optionally pushes it through optimization passes, a
// port scrambling, and a serialize→parse round trip in one of the netlist
// formats, then asserts two independent oracles:
//
//   - the pipeline oracle: rewrite+extract must recover exactly the planted
//     P(x) (Algorithm 2 / Theorem 3), and the golden-model verification must
//     pass — across every architecture and synthesis variant;
//   - the simulation oracle: 64-way bit-parallel simulation of the netlist
//     must agree with software GF(2^m) arithmetic (gf2poly.MulMod) on random
//     vectors, independently of the rewriting engine.
//
// Adversarial cases (random DAGs from package randnet) additionally check
// that every layer degrades gracefully on non-multipliers: the formats must
// round-trip them and extraction must return an error, never panic.
//
// Package campaign.go runs cases in parallel with per-case timeouts and
// panic capture; minimize.go shrinks a failing netlist to a near-minimal
// repro. Command gffuzz is the CLI front end.
package diffcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/randnet"
)

// Arch selects the multiplier generator.
type Arch string

// Supported architectures.
const (
	ArchMastrovito  Arch = "mastrovito"
	ArchMatrix      Arch = "matrix"
	ArchMontgomery  Arch = "montgomery"
	ArchKaratsuba   Arch = "karatsuba"
	ArchDigitSerial Arch = "digitserial"
)

// AllArchs lists every supported architecture.
func AllArchs() []Arch {
	return []Arch{ArchMastrovito, ArchMatrix, ArchMontgomery, ArchKaratsuba, ArchDigitSerial}
}

// Format selects the serialize→parse round trip of a case.
type Format string

// Round-trip formats. FormatNone feeds the netlist to extraction directly.
const (
	FormatNone    Format = "none"
	FormatEQN     Format = "eqn"
	FormatBLIF    Format = "blif"
	FormatVerilog Format = "verilog"
)

// AllFormats lists every round-trip option including FormatNone.
func AllFormats() []Format {
	return []Format{FormatNone, FormatEQN, FormatBLIF, FormatVerilog}
}

// Passes maps optimization-pass names to their implementations; case
// sampling draws pass sequences from PassNames.
var Passes = map[string]func(*netlist.Netlist) (*netlist.Netlist, error){
	"simplify":     opt.Simplify,
	"balance":      opt.BalanceXor,
	"techmap-fuse": func(n *netlist.Netlist) (*netlist.Netlist, error) { return opt.TechMap(n, opt.MapFuseInverters) },
	"techmap-nand": func(n *netlist.Netlist) (*netlist.Netlist, error) { return opt.TechMap(n, opt.MapNandHeavy) },
	"aoi":          opt.MapAOI,
	"synth":        opt.Synthesize,
}

// PassNames is the deterministic sampling order of Passes.
var PassNames = []string{"simplify", "balance", "techmap-fuse", "techmap-nand", "aoi", "synth"}

// Case is one deterministic differential test: everything Run does is a
// function of the case alone.
type Case struct {
	Index int
	Seed  int64
	Kind  Kind

	// Multiplier-case parameters.
	M        int
	P        gf2poly.Poly
	Arch     Arch
	Digit    int // digit width for ArchDigitSerial
	Opt      []string
	Format   Format
	Scramble bool

	// Inject, when positive, flips XOR gate #((Inject-1) mod CountXor) to OR
	// right after generation — a deliberate fault the harness must catch
	// (the self-check mode of gffuzz). KindObfuscate flips it in the locked
	// design instead.
	Inject int

	// Obfuscation-case parameters (KindObfuscate): key-gating style name
	// ("xor" / "mux" / "opaque") and planted key count.
	Lock string
	Keys int

	// SimTrials is the number of 64-vector simulation words per oracle.
	SimTrials int
	// Threads is the rewriting worker count (campaigns parallelize across
	// cases, so 0 is normalized to 1).
	Threads int
}

// Label renders a compact human-readable case descriptor.
func (c Case) Label() string {
	if s, ok := specOf(c.Kind); ok {
		return s.label(c)
	}
	return string(c.Kind)
}

func multiplierLabel(c Case) string {
	parts := []string{string(c.Arch), fmt.Sprintf("m=%d", c.M)}
	if c.Arch == ArchDigitSerial {
		parts = append(parts, fmt.Sprintf("d=%d", c.Digit))
	}
	if len(c.Opt) > 0 {
		parts = append(parts, strings.Join(c.Opt, "+"))
	}
	if c.Format != FormatNone && c.Format != "" {
		parts = append(parts, string(c.Format))
	}
	if c.Scramble {
		parts = append(parts, "scrambled")
	}
	return strings.Join(parts, "/")
}

// Generate builds the case's multiplier netlist from the planted P(x).
func (c Case) Generate() (*netlist.Netlist, error) {
	switch c.Arch {
	case ArchMastrovito:
		return gen.Mastrovito(c.M, c.P)
	case ArchMatrix:
		return gen.MastrovitoMatrix(c.M, c.P)
	case ArchMontgomery:
		return gen.Montgomery(c.M, c.P)
	case ArchKaratsuba:
		return gen.Karatsuba(c.M, c.P)
	case ArchDigitSerial:
		return gen.DigitSerial(c.M, c.P, c.Digit)
	}
	return nil, fmt.Errorf("diffcheck: unknown architecture %q", c.Arch)
}

// Status classifies a case outcome.
type Status string

// Case outcomes.
const (
	Pass Status = "pass"
	Fail Status = "fail"
)

// Result is the outcome of running one case.
type Result struct {
	Case     Case
	Status   Status
	Stage    string // pipeline stage that failed ("" on pass)
	Err      string // failure description ("" on pass)
	Panicked bool
	Gates    int // gate count of the netlist fed to extraction
	Dur      time.Duration

	// Failure context for minimization: the final pipeline netlist and the
	// planted port binding valid in it (nil/empty when not applicable).
	Netlist *netlist.Netlist
	Binding Binding

	// Verdict is the kind's outcome payload, set once a case reaches its
	// kind's verdict (nil for multiplier and adversarial cases): the
	// case_pass event carries its keys and Summary.Tally aggregates them:
	//
	//	diagnose   loc_hit (1: every planted gate had a suspect in its fanout
	//	           cone), loc_rank (best such suspect rank; -1 when masked)
	//	resume     reused (cones adopted from the checkpoint)
	//	chaos      kills, expired, fenced, stolen (workers killed, leases
	//	           expired, zombie submissions fenced, leases split)
	//	overload   quota_rejects, shed_rejects, deduped, deadline_expired,
	//	           well_p99_ms (the well-behaved tenant's p99 latency)
	//	obfuscate  keys_planted, keys_detected, opaque_hit (1: an
	//	           opaque-constant finding fired)
	Verdict map[string]int64
}

// Binding names the multiplier ports of a netlist: operand input names (LSB
// first) and the output port name of every logical bit. Names survive every
// pipeline stage (optimization, scrambling, format round trips), unlike gate
// IDs, so the planted binding can be re-resolved at any point.
type Binding struct {
	A, B []string
	Out  []string
}

// CanonicalBinding is the generator port convention: a0.., b0.., z0...
func CanonicalBinding(m int) Binding {
	bd := Binding{A: make([]string, m), B: make([]string, m), Out: make([]string, m)}
	for i := 0; i < m; i++ {
		bd.A[i] = fmt.Sprintf("a%d", i)
		bd.B[i] = fmt.Sprintf("b%d", i)
		bd.Out[i] = fmt.Sprintf("z%d", i)
	}
	return bd
}

// Resolve maps the binding onto a concrete netlist: operand input gate IDs
// and, per logical bit, the output position carrying it.
func (bd Binding) Resolve(n *netlist.Netlist) (a, b, outPos []int, err error) {
	lookupIn := func(names []string) ([]int, error) {
		ids := make([]int, len(names))
		for i, nm := range names {
			id, ok := n.Lookup(nm)
			if !ok {
				return nil, fmt.Errorf("diffcheck: input %q not found", nm)
			}
			ids[i] = id
		}
		return ids, nil
	}
	if a, err = lookupIn(bd.A); err != nil {
		return nil, nil, nil, err
	}
	if b, err = lookupIn(bd.B); err != nil {
		return nil, nil, nil, err
	}
	byName := map[string]int{}
	for pos, nm := range n.OutputNames() {
		byName[nm] = pos
	}
	outPos = make([]int, len(bd.Out))
	for k, nm := range bd.Out {
		pos, ok := byName[nm]
		if !ok {
			return nil, nil, nil, fmt.Errorf("diffcheck: output %q not found", nm)
		}
		outPos[k] = pos
	}
	return a, b, outPos, nil
}

// Run executes the case's full differential pipeline. It never panics: a
// panic anywhere in the pipeline is captured into a Fail result with the
// stack attached.
func Run(c Case) (res Result) {
	if c.SimTrials <= 0 {
		c.SimTrials = 4
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	res.Case = c
	res.Status = Pass
	start := time.Now()
	defer func() { res.Dur = time.Since(start) }()

	stage := "init"
	defer func() {
		if r := recover(); r != nil {
			res.Status = Fail
			res.Panicked = true
			res.Stage = stage
			res.Err = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	fail := func(err error) Result {
		res.Status = Fail
		res.Stage = stage
		res.Err = err.Error()
		return res
	}

	s, ok := specOf(c.Kind)
	if !ok {
		return fail(fmt.Errorf("diffcheck: unknown case kind %q", c.Kind))
	}
	if s.run != nil {
		return s.run(c, &stage, fail)
	}

	// The planted-multiplier pipeline records its failure context on res
	// directly, so a failing or panicking case keeps it for minimization.
	stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}
	bd := CanonicalBinding(c.M)
	res.Gates = n.NumGates()

	if c.Inject > 0 {
		stage = "inject"
		if nx := CountXor(n); nx > 0 {
			if n, err = FlipXor(n, (c.Inject-1)%nx); err != nil {
				return fail(err)
			}
		}
	}

	// Simulation oracle on the raw generator output: catches generator bugs
	// without involving optimization or the rewriting engine.
	stage = "sim-gen"
	if err := SimOracle(n, c.P, bd, c.SimTrials, c.Seed); err != nil {
		res.Netlist, res.Binding = n, bd
		return fail(err)
	}

	for _, pass := range c.Opt {
		stage = "opt:" + pass
		fn := Passes[pass]
		if fn == nil {
			return fail(fmt.Errorf("diffcheck: unknown pass %q", pass))
		}
		if n, err = fn(n); err != nil {
			return fail(err)
		}
	}
	if len(c.Opt) > 0 {
		// Simulation oracle again: catches function-breaking passes.
		stage = "sim-opt"
		if err := SimOracle(n, c.P, bd, c.SimTrials, c.Seed+1); err != nil {
			res.Netlist, res.Binding = n, bd
			return fail(err)
		}
	}

	if c.Scramble {
		stage = "scramble"
		scrambled, sm, err := ScrambleMapped(n, c.Seed)
		if err != nil {
			return fail(err)
		}
		bd = bd.afterScramble(n, scrambled, sm)
		n = scrambled
	}

	if c.Format != "" && c.Format != FormatNone {
		stage = "serialize"
		var buf bytes.Buffer
		switch c.Format {
		case FormatEQN:
			err = n.WriteEQN(&buf)
		case FormatBLIF:
			err = n.WriteBLIF(&buf)
		case FormatVerilog:
			err = n.WriteVerilog(&buf)
		default:
			err = fmt.Errorf("diffcheck: unknown format %q", c.Format)
		}
		if err != nil {
			return fail(err)
		}
		stage = "parse"
		if n, err = netlist.Read(&buf, string(c.Format), n.Name); err != nil {
			return fail(err)
		}
	}
	res.Gates = n.NumGates()
	res.Netlist, res.Binding = n, bd

	// Lint oracle: a healthy generated design — optimized, scrambled and
	// round-tripped or not — must carry zero error-level findings.
	// Scrambled port names may demote the naming rules to info severity,
	// never to error; anything stronger is a generator or pass bug.
	stage = "lint"
	if rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true}); rep.HasErrors() {
		return fail(rep.Err())
	}

	// Pipeline oracle: extraction must recover the planted polynomial and
	// the golden-model verification (inside Extract) must pass.
	stage = "extract"
	var got gf2poly.Poly
	if c.Scramble {
		ext, _, err := extract.IrreduciblePolynomialInferred(n, extract.Options{Threads: c.Threads})
		if err != nil {
			return fail(err)
		}
		got = ext.P
	} else {
		ext, err := extract.IrreduciblePolynomial(n, extract.Options{Threads: c.Threads})
		if err != nil {
			return fail(err)
		}
		got = ext.P
		// Exercise the exported cross-check path on canonical ports too.
		stage = "sim-x"
		if err := extract.SimulationCrossCheck(n, ext, 1, c.Seed+2); err != nil {
			return fail(err)
		}
	}
	stage = "compare"
	if !got.Equal(c.P) {
		return fail(fmt.Errorf("diffcheck: extracted %v, planted %v", got, c.P))
	}

	// Final simulation oracle on the exact netlist extraction saw.
	stage = "sim-final"
	if err := SimOracle(n, c.P, bd, c.SimTrials, c.Seed+3); err != nil {
		return fail(err)
	}
	res.Netlist, res.Binding = nil, Binding{} // passing cases drop the context
	return res
}

// runDiagnose executes a fault-tolerance case: plant c.Inject XOR→OR trojans
// in distinct output cones of a matrix-form multiplier, then require that
//
//   - extract.Diagnose recovers the planted P(x) by consensus at tolerance
//     c.Inject despite the tampered cones, and
//   - the ranked suspect set localizes every planted gate: each trojan's
//     fanout cone must contain at least one suspect (sensitization cannot
//     distinguish a fault from its always-sensitized downstream path, so
//     "planted or fanout" is the sharpest assertable criterion).
func runDiagnose(c Case, stage *string, fail func(error) Result) Result {
	k := c.Inject
	if k <= 0 {
		k = 1
	}
	*stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}

	// Pick one XOR in each of k distinct output cones, deterministically
	// from the case seed. Distinct cones keep the faults independent: two
	// trojans in one cone could partially mask each other, which is a
	// consensus scenario, not a localization one.
	*stage = "plant"
	xorIdx := map[int]int{}
	idx := 0
	for id := 0; id < n.NumGates(); id++ {
		if n.Gate(id).Type == netlist.Xor {
			xorIdx[id] = idx
			idx++
		}
	}
	r := rand.New(rand.NewSource(c.Seed))
	outs := n.Outputs()
	chosen := map[int]bool{}
	var ks []int
	for _, oi := range r.Perm(len(outs)) {
		if len(ks) == k {
			break
		}
		var inCone []int
		for _, id := range n.Cone(outs[oi]) {
			if xi, ok := xorIdx[id]; ok && !chosen[xi] {
				inCone = append(inCone, xi)
			}
		}
		if len(inCone) == 0 {
			continue
		}
		xi := inCone[r.Intn(len(inCone))]
		chosen[xi] = true
		ks = append(ks, xi)
	}
	if len(ks) < k {
		return fail(fmt.Errorf("diffcheck: only %d of %d cones have an unclaimed XOR to trojan", len(ks), k))
	}
	*stage = "inject"
	bad, planted, err := FlipXors(n, ks)
	if err != nil {
		return fail(err)
	}

	res := Result{Case: c, Status: Pass, Gates: bad.NumGates()}
	*stage = "diagnose"
	ext, diag, err := extract.Diagnose(bad, extract.Options{Threads: c.Threads, Tolerate: k})
	if err != nil {
		return fail(err)
	}
	if !ext.P.Equal(c.P) {
		return fail(fmt.Errorf("diffcheck: diagnosed %v, planted %v", ext.P, c.P))
	}
	*stage = "localize"
	if diag.Faults == 0 {
		// The trojans were functionally masked; nothing to localize.
		res.Verdict = map[string]int64{"loc_hit": 1, "loc_rank": -1}
		return res
	}
	hits, best := 0, -1
	for _, g := range planted {
		fan := map[int]bool{}
		for _, id := range bad.FanoutCone(g) {
			fan[id] = true
		}
		for rank, s := range diag.Suspects {
			if fan[s.Gate] {
				hits++
				if best < 0 || rank < best {
					best = rank
				}
				break
			}
		}
	}
	if hits != len(planted) {
		return fail(fmt.Errorf("diffcheck: localization missed %d of %d planted gates (suspects %d, tampered bits %v)",
			len(planted)-hits, len(planted), len(diag.Suspects), diag.Tampered))
	}
	res.Verdict = map[string]int64{"loc_hit": 1, "loc_rank": int64(best)}
	return res
}

// afterScramble rewrites the binding's names through a scramble: pre is the
// netlist the binding resolves in, post its scrambled copy.
func (bd Binding) afterScramble(pre, post *netlist.Netlist, sm *ScrambleMap) Binding {
	out := Binding{A: make([]string, len(bd.A)), B: make([]string, len(bd.B)), Out: make([]string, len(bd.Out))}
	for i, nm := range bd.A {
		id, _ := pre.Lookup(nm)
		out.A[i] = post.NameOf(sm.Gate[id])
	}
	for i, nm := range bd.B {
		id, _ := pre.Lookup(nm)
		out.B[i] = post.NameOf(sm.Gate[id])
	}
	prePos := map[string]int{}
	for pos, nm := range pre.OutputNames() {
		prePos[nm] = pos
	}
	postNames := post.OutputNames()
	for k, nm := range bd.Out {
		out.Out[k] = postNames[sm.OutPos[prePos[nm]]]
	}
	return out
}

// SimOracle checks the netlist against software GF(2^m) arithmetic:
// words×64 random vectors are simulated and every output bit is compared
// with the corresponding coefficient of A(x)·B(x) mod p. It is fully
// independent of the rewriting engine.
func SimOracle(n *netlist.Netlist, p gf2poly.Poly, bd Binding, words int, seed int64) error {
	a, b, outPos, err := bd.Resolve(n)
	if err != nil {
		return err
	}
	m := len(a)
	ins := n.Inputs()
	pos := make(map[int]int, len(ins))
	for i, id := range ins {
		pos[id] = i
	}
	r := rand.New(rand.NewSource(seed))
	for w := 0; w < words; w++ {
		in := make([]uint64, len(ins))
		for i := range in {
			in[i] = r.Uint64()
		}
		vals, err := n.Simulate(in)
		if err != nil {
			return err
		}
		outs := n.OutputWords(vals)
		for lane := 0; lane < 64; lane++ {
			var aTerms, bTerms []int
			for i := 0; i < m; i++ {
				if in[pos[a[i]]]>>uint(lane)&1 == 1 {
					aTerms = append(aTerms, i)
				}
				if in[pos[b[i]]]>>uint(lane)&1 == 1 {
					bTerms = append(bTerms, i)
				}
			}
			want := gf2poly.FromTerms(aTerms...).MulMod(gf2poly.FromTerms(bTerms...), p)
			for c := 0; c < m; c++ {
				got := outs[outPos[c]]>>uint(lane)&1 == 1
				if got != (want.Coeff(c) == 1) {
					return fmt.Errorf("diffcheck: simulation deviates from A·B mod %v at word %d lane %d bit %d",
						p, w, lane, c)
				}
			}
		}
	}
	return nil
}

// runAdversarial exercises the pipeline on a random non-multiplier DAG: the
// three formats must round-trip it function-identically (differential check
// across parsers/writers), and extraction must fail gracefully, not panic.
func runAdversarial(c Case, stage *string, fail func(error) Result) Result {
	r := rand.New(rand.NewSource(c.Seed))
	*stage = "adv-gen"
	n, err := randnet.New(r, randnet.Config{
		Inputs:    2 + r.Intn(10),
		Gates:     1 + r.Intn(150),
		Outputs:   1 + r.Intn(6),
		Luts:      r.Intn(2) == 0,
		Constants: r.Intn(3) == 0,
	})
	if err != nil {
		return fail(err)
	}
	res := Result{Case: c, Status: Pass, Gates: n.NumGates()}

	type rt struct {
		name  string
		write func(*netlist.Netlist, *bytes.Buffer) error
	}
	formats := []rt{
		{"eqn", func(n *netlist.Netlist, b *bytes.Buffer) error { return n.WriteEQN(b) }},
		{"blif", func(n *netlist.Netlist, b *bytes.Buffer) error { return n.WriteBLIF(b) }},
		{"verilog", func(n *netlist.Netlist, b *bytes.Buffer) error { return n.WriteVerilog(b) }},
	}
	for _, f := range formats {
		*stage = "adv-roundtrip-" + f.name
		var buf bytes.Buffer
		if err := f.write(n, &buf); err != nil {
			return fail(err)
		}
		back, err := netlist.Read(&buf, f.name, "rt")
		if err != nil {
			return fail(err)
		}
		if err := functionsAgree(n, back, c.Seed+7); err != nil {
			return fail(fmt.Errorf("%s round trip: %w", f.name, err))
		}
	}

	// Extraction on garbage: any error is fine, a panic is not (the deferred
	// recover in Run converts it into a Fail). The term budget makes the
	// exit deterministic on exploding DAGs — the governor aborts the cone
	// with ErrBudgetExceeded instead of racing the case timeout.
	*stage = "adv-extract"
	_, _ = extract.IrreduciblePolynomial(n, extract.Options{Threads: c.Threads, BudgetTerms: advTermBudget})
	*stage = "adv-extract-inferred"
	_, _, _ = extract.IrreduciblePolynomialInferred(n, extract.Options{Threads: c.Threads, BudgetTerms: advTermBudget})
	return res
}

// advTermBudget is the per-cone resident-term cap for adversarial
// extraction. Random DAGs are exactly the cancellation-free blowup the
// resource governor exists for; half a million terms is far beyond any
// in-range multiplier cone and still aborts a 2^50-term explosion in
// milliseconds.
const advTermBudget = 1 << 19

// functionsAgree simulates both netlists on shared random vectors and
// compares the primary-output words.
func functionsAgree(n1, n2 *netlist.Netlist, seed int64) error {
	if len(n1.Inputs()) != len(n2.Inputs()) || len(n1.Outputs()) != len(n2.Outputs()) {
		return fmt.Errorf("port counts changed: %d/%d inputs, %d/%d outputs",
			len(n1.Inputs()), len(n2.Inputs()), len(n1.Outputs()), len(n2.Outputs()))
	}
	r := rand.New(rand.NewSource(seed))
	for round := 0; round < 4; round++ {
		words := make([]uint64, len(n1.Inputs()))
		for i := range words {
			words[i] = r.Uint64()
		}
		v1, err := n1.Simulate(words)
		if err != nil {
			return err
		}
		v2, err := n2.Simulate(words)
		if err != nil {
			return err
		}
		o1, o2 := n1.OutputWords(v1), n2.OutputWords(v2)
		for i := range o1 {
			if o1[i] != o2[i] {
				return fmt.Errorf("output %d differs", i)
			}
		}
	}
	return nil
}
