package diffcheck

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
)

// The obfuscation campaign is the arms-race oracle: the repository's own
// logic-locking transforms (gen.Obfuscate) versus its own semantic detector
// (netlint's key-gate / opaque-constant rules over the sem sweep). A healthy
// detector is exact on this corpus — every planted key flagged, nothing
// flagged on clean designs — because the planted key inputs are, by
// construction, surplus to the operand partition and reach output supports.

// obfStyleOf maps a Case.Lock name to the generator style.
func obfStyleOf(name string) (gen.ObfStyle, error) {
	switch name {
	case "xor":
		return gen.ObfXor, nil
	case "mux":
		return gen.ObfMux, nil
	case "opaque":
		return gen.ObfOpaque, nil
	}
	return 0, fmt.Errorf("diffcheck: unknown lock style %q", name)
}

// LockStyles lists the lock-style names case sampling draws from.
func LockStyles() []string { return []string{"xor", "mux", "opaque"} }

// keyFindingRules are the lint rules that must stay silent on clean designs
// and (for the first two) fire on locked ones. dead-by-algebra is excluded:
// it legitimately fires on clean generated designs (karatsuba's combine step
// emits cancelling XOR pairs for some polynomials), so it is a redundancy
// report, not a lock indicator.
var keyFindingRules = map[string]bool{
	"key-gate":        true,
	"opaque-constant": true,
	"nonlinear-cone":  true,
}

// runObfuscate executes one lock→detect case. Stages:
//
//	lint-clean   zero key/opaque/nonlinear findings on the clean design
//	obfuscate    plant Keys key gates in Lock style
//	inject       (Inject > 0 only) flip one XOR of the locked design to OR
//	sim-locked   locked design ∘ (key = 0) ≡ clean design on random vectors
//	detect       detected gated keys == planted keys, exactly; locked
//	             designs still pass preflight (warn, never error)
func runObfuscate(c Case, stage *string, fail func(error) Result) Result {
	*stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}

	// Clean-corpus oracle: any key-ish finding here is a false positive by
	// definition — the generator planted nothing.
	*stage = "lint-clean"
	rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true})
	if rep.HasErrors() {
		return fail(rep.Err())
	}
	for _, f := range rep.Findings {
		if keyFindingRules[f.Rule] {
			return fail(fmt.Errorf("diffcheck: false positive %s on clean %s: %s", f.Rule, c.Arch, f.Message))
		}
	}
	if alg := rep.Algebra; alg == nil {
		return fail(fmt.Errorf("diffcheck: clean design report has no algebra summary"))
	} else if len(alg.KeyInputs) != 0 || len(alg.GatedKeyInputs) != 0 {
		return fail(fmt.Errorf("diffcheck: clean design reports key inputs %v (gated %v)", alg.KeyInputs, alg.GatedKeyInputs))
	}

	*stage = "obfuscate"
	style, err := obfStyleOf(c.Lock)
	if err != nil {
		return fail(err)
	}
	keys := c.Keys
	if keys < 1 {
		keys = 1
	}
	obf, info, err := gen.Obfuscate(n, gen.ObfuscateOptions{Style: style, Keys: keys, Seed: c.Seed})
	if err != nil {
		return fail(err)
	}
	if c.Inject > 0 {
		// A deliberate fault in the locked design, which the correct-key
		// equivalence below must catch (and a campaign must write a repro
		// for).
		*stage = "inject"
		if nx := CountXor(obf); nx > 0 {
			if obf, err = FlipXor(obf, (c.Inject-1)%nx); err != nil {
				return fail(err)
			}
		}
	}
	res := Result{Case: c, Status: Pass, Gates: obf.NumGates()}

	// Correct-key equivalence: the transform must not have changed the
	// function it claims to hide. The failure carries the locked netlist,
	// so a campaign's -repro writes it.
	*stage = "sim-locked"
	if err := lockedEquiv(n, obf, len(info.KeyInputs), c.SimTrials, c.Seed+11); err != nil {
		failed := fail(err)
		failed.Netlist, failed.Binding = obf, CanonicalBinding(c.M)
		return failed
	}

	*stage = "detect"
	rep = netlint.Analyze(obf, netlint.Options{RequireMultiplier: true})
	if rep.HasErrors() {
		// Locked designs are suspicious, not malformed: preflight must warn
		// (so -strict and submit-time policy can reject) without erroring.
		return fail(fmt.Errorf("diffcheck: locked design escalated to error: %v", rep.Err()))
	}
	if rep.Algebra == nil {
		return fail(fmt.Errorf("diffcheck: locked design report has no algebra summary"))
	}
	detected := append([]string(nil), rep.Algebra.GatedKeyInputs...)
	planted := append([]string(nil), info.KeyNames...)
	sort.Strings(detected)
	sort.Strings(planted)
	if !equalStrings(detected, planted) {
		return fail(fmt.Errorf("diffcheck: detector found gated keys %v, planted %v (style %s)", detected, planted, c.Lock))
	}
	var keyGates, opaques int
	for _, f := range rep.Findings {
		switch f.Rule {
		case "key-gate":
			keyGates++
		case "opaque-constant":
			opaques++
		}
	}
	if keyGates == 0 {
		return fail(fmt.Errorf("diffcheck: %d keys planted but no key-gate finding", len(planted)))
	}
	var opaqueHit int64
	if style == gen.ObfOpaque {
		if opaques == 0 {
			return fail(fmt.Errorf("diffcheck: opaque lock planted but no opaque-constant finding"))
		}
		opaqueHit = 1
	}
	res.Verdict = map[string]int64{
		"keys_planted": int64(len(info.KeyInputs)), "keys_detected": int64(len(detected)),
		"opaque_hit": opaqueHit,
	}
	return res
}

// lockedEquiv simulates the locked netlist with every key input forced to
// zero and the original inputs driven by shared random words, and compares
// all output words against the clean netlist. nkeys key inputs occupy the
// tail of the locked design's input list (gen.Obfuscate appends them).
func lockedEquiv(clean, locked *netlist.Netlist, nkeys, words int, seed int64) error {
	ci, li := clean.Inputs(), locked.Inputs()
	if len(li) != len(ci)+nkeys {
		return fmt.Errorf("diffcheck: locked design has %d inputs, want %d + %d keys", len(li), len(ci), nkeys)
	}
	if words <= 0 {
		words = 2
	}
	r := rand.New(rand.NewSource(seed))
	for w := 0; w < words; w++ {
		in := make([]uint64, len(ci))
		for i := range in {
			in[i] = r.Uint64()
		}
		lin := make([]uint64, len(li))
		copy(lin, in) // keys stay zero
		cv, err := clean.Simulate(in)
		if err != nil {
			return err
		}
		lv, err := locked.Simulate(lin)
		if err != nil {
			return err
		}
		co, lo := clean.OutputWords(cv), locked.OutputWords(lv)
		for i := range co {
			if co[i] != lo[i] {
				return fmt.Errorf("diffcheck: locked design deviates from clean under the correct key at output %d word %d", i, w)
			}
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
