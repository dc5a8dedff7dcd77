package diffcheck

import (
	"os"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
)

// TestObfuscateCaseEveryStyle runs one direct case per lock style: the clean
// design must lint key-silent, the locked design must stay functionally
// intact under the all-zeros key, and the detector must recover exactly the
// planted key set.
func TestObfuscateCaseEveryStyle(t *testing.T) {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	for _, lock := range LockStyles() {
		c := Case{
			Kind: KindObfuscate, M: 8, P: p8, Arch: ArchMastrovito,
			Lock: lock, Keys: 3, Seed: 41, SimTrials: 4,
		}
		res := Run(c)
		if res.Status != Pass {
			t.Fatalf("[%s] failed at %s: %s", c.Label(), res.Stage, res.Err)
		}
		if res.Verdict == nil || res.Verdict["keys_planted"] != 3 || res.Verdict["keys_detected"] != 3 {
			t.Fatalf("[%s] planted/detected = %d/%d (obfuscated=%v), want 3/3",
				c.Label(), res.Verdict["keys_planted"], res.Verdict["keys_detected"], res.Verdict != nil)
		}
		if (lock == "opaque") != (res.Verdict["opaque_hit"] == 1) {
			t.Fatalf("[%s] OpaqueHit = %v", c.Label(), res.Verdict["opaque_hit"] == 1)
		}
	}
}

// TestObfuscateCampaignAggregates runs a small campaign end to end: every
// case passes, and the summary's planted/detected tallies balance (the
// per-case exact-set oracle makes any imbalance a failed case first).
func TestObfuscateCampaignAggregates(t *testing.T) {
	sum, err := RunCampaign(Config{N: 10, Seed: 17, Kind: KindObfuscate, MinM: 4, MaxM: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		}
		t.Fatalf("%d of %d obfuscation cases failed", sum.Failed, sum.Cases)
	}
	if sum.Tally.Verdicts != 10 {
		t.Fatalf("Obfuscated = %d, want 10", sum.Tally.Verdicts)
	}
	if sum.Tally.Sum("keys_planted") == 0 || sum.Tally.Sum("keys_detected") != sum.Tally.Sum("keys_planted") {
		t.Fatalf("keys detected/planted = %d/%d, want equal and nonzero",
			sum.Tally.Sum("keys_detected"), sum.Tally.Sum("keys_planted"))
	}
	if sum.ByArch["obfuscate"] != 10 {
		t.Fatalf("ByArch = %v", sum.ByArch)
	}
}

// TestObfuscateWrongKeyDeviates pins that the lock is a real lock: under an
// incorrect key at least one XOR-locked output must deviate from the clean
// function (otherwise the "obfuscation" is a no-op and detecting it proves
// nothing).
func TestObfuscateWrongKeyDeviates(t *testing.T) {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	n, err := gen.Mastrovito(8, p8)
	if err != nil {
		t.Fatal(err)
	}
	obf, info, err := gen.Obfuscate(n, gen.ObfuscateOptions{Style: gen.ObfXor, Keys: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Correct key (all zeros) agrees...
	if err := lockedEquiv(n, obf, len(info.KeyInputs), 2, 1); err != nil {
		t.Fatalf("correct key: %v", err)
	}
	// ...a stuck-high key does not.
	in := make([]uint64, len(n.Inputs()))
	for i := range in {
		in[i] = 0x5555aaaa5555aaaa
	}
	lin := make([]uint64, len(obf.Inputs()))
	copy(lin, in)
	for i := len(in); i < len(lin); i++ {
		lin[i] = ^uint64(0)
	}
	cv, err := n.Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := obf.Simulate(lin)
	if err != nil {
		t.Fatal(err)
	}
	co, lo := n.OutputWords(cv), obf.OutputWords(lv)
	same := true
	for i := range co {
		if co[i] != lo[i] {
			same = false
		}
	}
	if same {
		t.Fatal("wrong key produced identical outputs: the lock is a no-op")
	}
}

// TestLockedDesignPreflightWarns pins the gflint contract for locked
// multipliers: RequireMultiplier analysis must warn (key-gate plus the
// key-aware io-shape note) without erroring, so -strict rejects the design
// while plain preflight still describes it.
func TestLockedDesignPreflightWarns(t *testing.T) {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	n, err := gen.Mastrovito(8, p8)
	if err != nil {
		t.Fatal(err)
	}
	obf, info, err := gen.Obfuscate(n, gen.ObfuscateOptions{Style: gen.ObfMux, Keys: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := netlint.Analyze(obf, netlint.Options{RequireMultiplier: true})
	if rep.HasErrors() {
		t.Fatalf("locked design escalated to error: %v", rep.Err())
	}
	var keyGate, ioShapeWarn bool
	for _, f := range rep.Findings {
		if f.Rule == "key-gate" {
			keyGate = true
		}
		if f.Rule == "io-shape" && f.Severity == netlint.SevWarn {
			ioShapeWarn = true
		}
	}
	if !keyGate || !ioShapeWarn {
		t.Fatalf("keyGate=%v ioShapeWarn=%v; findings: %+v", keyGate, ioShapeWarn, rep.Findings)
	}
	if got := len(rep.Algebra.GatedKeyInputs); got != len(info.KeyNames) {
		t.Fatalf("GatedKeyInputs = %v, planted %v", rep.Algebra.GatedKeyInputs, info.KeyNames)
	}
}

// TestObfuscateSimLockedFailureWritesRepro forces a sim-locked failure (a
// flipped XOR in the locked design) and checks that the failing result
// carries the locked netlist, so the campaign writes a repro for it.
func TestObfuscateSimLockedFailureWritesRepro(t *testing.T) {
	dir := t.TempDir()
	sum, err := RunCampaign(Config{N: 1, Seed: 17, Kind: KindObfuscate, MinM: 4, MaxM: 6, Workers: 1, Inject: 1, ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || sum.Failures[0].Stage != "sim-locked" {
		t.Fatalf("want one sim-locked failure, got %d failures %+v", sum.Failed, sum.Failures)
	}
	if sum.Failures[0].Netlist == nil {
		t.Fatal("sim-locked failure carries no netlist")
	}
	path := sum.Repros[0]
	if path == "" {
		t.Fatal("no repro written for the sim-locked failure")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("repro %s: %v", path, err)
	}
}
