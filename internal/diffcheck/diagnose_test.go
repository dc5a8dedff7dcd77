package diffcheck

import (
	"errors"
	"fmt"
	"testing"

	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

func TestFlipXors(t *testing.T) {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	n, err := gen.MastrovitoMatrix(8, p8)
	if err != nil {
		t.Fatal(err)
	}
	nx := CountXor(n)
	if nx < 4 {
		t.Fatalf("test premise: need >= 4 XORs, have %d", nx)
	}
	bad, flipped, err := FlipXors(n, []int{1, nx - 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(flipped) != 2 {
		t.Fatalf("flipped = %v, want 2 gates", flipped)
	}
	for _, id := range flipped {
		if got := bad.Gate(id).Type; got != netlist.Or {
			t.Errorf("gate %d type = %v, want Or", id, got)
		}
	}
	if got := CountXor(bad); got != nx-2 {
		t.Errorf("trojaned netlist has %d XORs, want %d", got, nx-2)
	}
	// Out-of-range and duplicate indices must error, not mangle the netlist.
	if _, _, err := FlipXors(n, []int{nx}); err == nil {
		t.Error("out-of-range XOR index must fail")
	}
	if _, _, err := FlipXors(n, []int{0, 0}); err == nil {
		t.Error("duplicate XOR index must fail")
	}
}

func TestDiagnoseCaseRecoversAndLocalizes(t *testing.T) {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	res := Run(Case{Kind: KindDiagnose, M: 8, P: p8, Arch: ArchMatrix, Inject: 1, Seed: 42})
	if res.Status != Pass {
		t.Fatalf("%s at %s: %s", res.Status, res.Stage, res.Err)
	}
	if res.Verdict == nil || res.Verdict["loc_hit"] != 1 {
		t.Fatalf("result = %+v, want diagnosed with localization hit", res)
	}
	if res.Verdict["loc_rank"] < 0 {
		t.Errorf("LocRank = %d, want a real suspect rank", res.Verdict["loc_rank"])
	}
}

func TestDiagnoseCampaignLocalizationPrecision(t *testing.T) {
	sum, err := RunCampaign(Config{
		N: 4, Seed: 11, Workers: 2,
		Kind: KindDiagnose, Inject: 1, MinM: 5, MaxM: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tally.Cases != 4 {
		t.Fatalf("Diagnosed = %d, want 4 (summary %+v)", sum.Tally.Cases, sum)
	}
	if sum.Failed != 0 {
		t.Fatalf("diagnosis campaign failed %d cases: %+v", sum.Failed, sum.Failures)
	}
	if got := sum.Tally.LocPrecision(); got != 1.0 {
		t.Errorf("localization precision = %v, want 1.0", got)
	}
	if sum.Tally.MedianLocRank() < 0 {
		t.Errorf("median rank = %d, want >= 0", sum.Tally.MedianLocRank())
	}
}

// TestDiagnoseTwoTrojansGF64 is the headline acceptance scenario: a
// GF(2^64) matrix-form Mastrovito multiplier built on the NIST polynomial,
// with trojans planted in two different output cones, must still yield the
// correct P(x) at tolerance 2, and the diagnosis must place a suspect
// inside each planted gate's fanout cone.
func TestDiagnoseTwoTrojansGF64(t *testing.T) {
	if testing.Short() {
		t.Skip("GF(2^64) extraction in -short mode")
	}
	res := Run(Case{
		Kind: KindDiagnose, M: 64, P: polytab.NIST[64],
		Arch: ArchMatrix, Inject: 2, Seed: 7, Threads: 8,
	})
	if res.Status != Pass {
		t.Fatalf("%s at %s: %s", res.Status, res.Stage, res.Err)
	}
	if res.Verdict["loc_hit"] != 1 {
		t.Fatal("localization missed a planted trojan")
	}
}

// TestAdversarialBudgetAbort pins the governed failure mode on a
// cancellation-free exploding circuit (the worst-case non-multiplier):
// extraction under a term budget must end in ErrBudgetExceeded — a clean,
// typed abort — rather than exhausting memory.
func TestAdversarialBudgetAbort(t *testing.T) {
	const l = 16
	n := netlist.New("explode")
	var sums, prods []int
	for i := 0; i < l; i++ {
		ai, _ := n.AddInput(fmt.Sprintf("a%d", i))
		bi, _ := n.AddInput(fmt.Sprintf("b%d", i))
		x, _ := n.AddGate(netlist.Xor, ai, bi)
		sums = append(sums, x)
		pr, _ := n.AddGate(netlist.And, ai, bi)
		prods = append(prods, pr)
	}
	for len(sums) > 1 {
		var next []int
		for i := 0; i+1 < len(sums); i += 2 {
			g, _ := n.AddGate(netlist.And, sums[i], sums[i+1])
			next = append(next, g)
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	for i := 0; i < l-1; i++ {
		if err := n.MarkOutput(fmt.Sprintf("z%d", i), prods[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.MarkOutput(fmt.Sprintf("z%d", l-1), sums[0]); err != nil {
		t.Fatal(err)
	}

	_, err := extract.IrreduciblePolynomial(n, extract.Options{Threads: 2, BudgetTerms: 4096})
	if !errors.Is(err, rewrite.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
