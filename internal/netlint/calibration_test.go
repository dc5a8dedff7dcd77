package netlint

import (
	"math/rand"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/randnet"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// TestConeCostCalibration pins the predictor against reality: for clean
// multipliers the per-cone no-cancellation bound must dominate the peak the
// rewriting engine actually reaches, the suggested budget must clear the
// run-wide peak with the documented slack, and the suggested deadline must
// dwarf the measured wall time. This is the test that keeps the
// budgetSlack / deadlinePerGate constants honest after engine changes — the
// packed ANF core cut per-gate substitution cost ~50x, which is what
// prompted the current deadlinePerGate value.
func TestConeCostCalibration(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, n *netlist.Netlist, wantDegreeWin bool) {
		rep := Analyze(n, Options{})
		if rep.HasErrors() {
			t.Fatalf("clean design lint errors: %+v", rep.Findings)
		}
		start := time.Now()
		rw, err := rewrite.Outputs(n, rewrite.Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)

		// Per-cone: predicted no-cancellation bound >= actual peak.
		if len(rep.Cones) != len(rw.Bits) {
			t.Fatalf("%d predicted cones, %d rewritten bits", len(rep.Cones), len(rw.Bits))
		}
		for i, cc := range rep.Cones {
			if actual := rw.Bits[i].PeakTerms; cc.PredictedPeakTerms < actual {
				t.Errorf("cone %s: predicted peak %d < actual peak %d — bound is not an upper bound",
					cc.Name, cc.PredictedPeakTerms, actual)
			}
			// A clean multiplier cone is bilinear; the semantic degree bound
			// (mixSlack * sum C(2m, d), d <= 2) caps every prediction, so
			// cost v2 can never predict worse than O(m^2) on a clean design
			// no matter how pessimistic the syntactic estimate is.
			if cc.DegA != 1 || cc.DegB != 1 || cc.DegTot != 2 {
				t.Errorf("cone %s: degrees %d/%d/%d, want 1/1/2", cc.Name, cc.DegA, cc.DegB, cc.DegTot)
			}
			if wantDegreeWin && cc.Method != "degree" {
				t.Errorf("cone %s: bound method %q, want the semantic degree bound to win", cc.Name, cc.Method)
			}
			if limit := degreeBound(2*16, 2); cc.PredictedPeakTerms > limit {
				t.Errorf("cone %s: predicted peak %d exceeds the degree bound %d", cc.Name, cc.PredictedPeakTerms, limit)
			}
		}
		// Run-wide: the suggested budget carries budgetSlack headroom over
		// the worst predicted peak, so it must clear the actual peak by at
		// least that factor on a clean design.
		peak := rw.PeakTerms()
		if rep.SuggestedBudgetTerms < peak*budgetSlack && rep.SuggestedBudgetTerms < budgetCeil {
			t.Errorf("suggested budget %d has less than %dx headroom over actual peak %d",
				rep.SuggestedBudgetTerms, budgetSlack, peak)
		}
		// The suggested deadline covers the whole run many times over; a
		// single cone brushing it would mean deadlinePerGate is miscalibrated.
		deadline := time.Duration(rep.SuggestedConeTimeoutMS) * time.Millisecond
		if deadline < deadlineFloor {
			t.Errorf("suggested deadline %v below floor %v", deadline, deadlineFloor)
		}
		if deadline < 10*elapsed {
			t.Errorf("suggested per-cone deadline %v is within 10x of the full-run wall time %v",
				deadline, elapsed)
		}
	}
	// Mastrovito's partial-product plane keeps the syntactic term bound
	// tight (often below the degree bound); Montgomery's carry chain makes
	// it explode, which is exactly where the degree bound must take over.
	t.Run("mastrovito", func(t *testing.T) {
		n, err := gen.Mastrovito(16, p)
		if err != nil {
			t.Fatal(err)
		}
		run(t, n, false)
	})
	t.Run("montgomery", func(t *testing.T) {
		n, err := gen.Montgomery(16, p)
		if err != nil {
			t.Fatal(err)
		}
		run(t, n, true)
	})
}

// TestConeCostBothBoundsWin is why predictCones takes the smaller of two
// bounds: over a generated corpus (m = 4..40, raw and synthesized, plus
// random DAGs) each bound is strictly tighter on part of it. The
// syntactic term bound wins every Mastrovito, Karatsuba and matrix cone;
// the semantic degree bound wins most Montgomery cones, whose carry chain
// explodes the term bound, and many random-DAG cones.
func TestConeCostBothBoundsWin(t *testing.T) {
	type wins struct{ term, degree, cones int }
	tally := map[string]*wins{}
	count := func(family string, n *netlist.Netlist) {
		w := tally[family]
		if w == nil {
			w = &wins{}
			tally[family] = w
		}
		ctx := newContext(n, Options{})
		sems := ctx.Sem()
		for i, id := range n.Outputs() {
			of := sems.Outputs[i]
			tb, db := int(ctx.scan.bounds[id]), degreeBound(of.SupportSize, of.DegTot)
			w.cones++
			if tb < db {
				w.term++
			} else if db < tb {
				w.degree++
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	archs := []struct {
		name string
		gen  func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{
		{"mastrovito", gen.Mastrovito}, {"karatsuba", gen.Karatsuba},
		{"matrix", gen.MastrovitoMatrix}, {"montgomery", gen.Montgomery},
	}
	for m := 4; m <= 40; m += 6 {
		p, err := gf2poly.RandomIrreducible(r, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range archs {
			n, err := a.gen(m, p)
			if err != nil {
				t.Fatal(err)
			}
			count(a.name, n)
			if n, err = opt.Synthesize(n); err != nil {
				t.Fatal(err)
			}
			count(a.name, n)
		}
	}
	for i := 0; i < 300; i++ {
		n, err := randnet.New(r, randnet.Config{
			Inputs: 2 + r.Intn(10), Gates: 1 + r.Intn(150), Outputs: 1 + r.Intn(6),
			Luts: r.Intn(2) == 0, Constants: r.Intn(3) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		count("random", n)
	}
	for family, w := range tally {
		t.Logf("%-10s term-bound wins %d, degree wins %d of %d cones", family, w.term, w.degree, w.cones)
	}
	for _, family := range []string{"mastrovito", "karatsuba", "matrix"} {
		if w := tally[family]; w.term != w.cones {
			t.Errorf("%s: term bound strictly tighter on %d of %d cones, want all", family, w.term, w.cones)
		}
	}
	if w := tally["montgomery"]; 2*w.degree <= w.cones {
		t.Errorf("montgomery: degree bound strictly tighter on %d of %d cones, want most", w.degree, w.cones)
	}
	if w := tally["random"]; w.degree == 0 {
		t.Errorf("random DAGs: degree bound never strictly tighter (%d cones)", w.cones)
	}
}
