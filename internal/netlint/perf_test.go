package netlint_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
)

// preflightWallShareLimit is the cost contract preflight must honor at
// production scale: linting a submission (rules, semantic sweep, cone index
// and cost prediction) may cost at most this fraction of the extraction it
// guards, so running it on every job is always affordable.
const preflightWallShareLimit = 0.30

// TestPreflightWallShare times the whole of netlint.Analyze against the
// parallel extraction users actually run, on the shapes where each part of
// preflight is heaviest: Montgomery, whose output cones overlap ~m-fold
// (a per-output cone sweep there took 60-70% of extraction before the cone
// index replaced it), and the largest Mastrovito field of the differential
// suite, where content hashing and the semantic sweep dominate. Both sides
// are best-of-three, and each round lints a freshly built netlist under a
// distinct name, so neither the semantic sweep's content-hash cache nor the
// memoized cone index can hide work; extraction then runs on the linted
// netlist, as it does after gfre's preflight. CI runs it in a build without
// the race detector; under -race it skips (see raceEnabled).
func TestPreflightWallShare(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("perf guard: skipped in -short and under the race detector")
	}
	for _, tc := range []struct {
		arch  string
		poly  string
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{
		{"montgomery", "x^163+x^7+x^6+x^3+1", gen.Montgomery},
		{"mastrovito", "x^233+x^74+1", gen.Mastrovito},
	} {
		p, err := gf2poly.Parse(tc.poly)
		if err != nil {
			t.Fatal(err)
		}
		m := p.Deg()
		t.Run(fmt.Sprintf("%s/m=%d", tc.arch, m), func(t *testing.T) {
			lintBest, extractBest := time.Duration(1<<62), time.Duration(1<<62)
			for round := 0; round < 3; round++ {
				n, err := tc.build(m, p)
				if err != nil {
					t.Fatal(err)
				}
				n.Name = fmt.Sprintf("%s-%s-round%d", t.Name(), tc.poly, round)

				t0 := time.Now()
				rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true})
				lintBest = min(lintBest, time.Since(t0))
				// Preflight being fast is worthless if it stopped working:
				// pin a clean, fully predicted report before trusting the
				// timing.
				if err := rep.Err(); err != nil || len(rep.Cones) != m {
					t.Fatalf("report: err %v, %d cone predictions for %d outputs", err, len(rep.Cones), m)
				}

				t0 = time.Now()
				ext, err := extract.IrreduciblePolynomial(n, extract.Options{})
				extractBest = min(extractBest, time.Since(t0))
				if err != nil {
					t.Fatal(err)
				}
				if ext.P.String() != p.String() {
					t.Fatalf("extraction recovered %s, want %s", ext.P, p)
				}
			}
			ratio := float64(lintBest) / float64(extractBest)
			t.Logf("netlint=%v extraction=%v ratio=%.1f%%", lintBest, extractBest, 100*ratio)
			if ratio > preflightWallShareLimit {
				t.Errorf("preflight took %.1f%% of extraction wall time, budget is %.0f%% (netlint=%v, extraction=%v)",
					100*ratio, 100*preflightWallShareLimit, lintBest, extractBest)
			}
		})
	}
}
