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
// suite, where content hashing and the semantic sweep dominate. Each round
// times both sides, in alternating order, on freshly built netlists under
// distinct names, so neither the semantic sweep's content-hash cache nor
// the memoized cone index can hide work; the extracted netlist is linted
// first, untimed, as gfre's preflight does. Whatever else runs on the host
// (other packages' tests, in a full go test ./...) only adds time to the
// side it lands on, and it lands mostly on the shorter lint, so the guard
// fails only when every round exceeds the bound. CI runs it in a build
// without the race detector; under -race it skips (see raceEnabled).
func TestPreflightWallShare(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("perf guard: skipped in -short and under the race detector")
	}
	const rounds = 4
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
			fresh := func(round int, side string) *netlist.Netlist {
				n, err := tc.build(m, p)
				if err != nil {
					t.Fatal(err)
				}
				n.Name = fmt.Sprintf("%s-%s-round%d-%s", t.Name(), tc.poly, round, side)
				return n
			}
			lint := func(n *netlist.Netlist) time.Duration {
				t0 := time.Now()
				rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true})
				d := time.Since(t0)
				// Preflight being fast is worthless if it stopped working:
				// pin a clean, fully predicted report before trusting the
				// timing.
				if err := rep.Err(); err != nil || len(rep.Cones) != m {
					t.Fatalf("report: err %v, %d cone predictions for %d outputs", err, len(rep.Cones), m)
				}
				return d
			}
			extraction := func(n *netlist.Netlist) time.Duration {
				t0 := time.Now()
				ext, err := extract.IrreduciblePolynomial(n, extract.Options{})
				d := time.Since(t0)
				if err != nil {
					t.Fatal(err)
				}
				if ext.P.String() != p.String() {
					t.Fatalf("extraction recovered %s, want %s", ext.P, p)
				}
				return d
			}
			best := 1e9
			for round := range rounds {
				linted, extracted := fresh(round, "lint"), fresh(round, "extract")
				lint(extracted)
				var l, x time.Duration
				if round%2 == 0 {
					l = lint(linted)
					x = extraction(extracted)
				} else {
					x = extraction(extracted)
					l = lint(linted)
				}
				ratio := float64(l) / float64(x)
				best = min(best, ratio)
				t.Logf("round %d: netlint=%v extraction=%v ratio=%.1f%%", round, l, x, 100*ratio)
			}
			if best > preflightWallShareLimit {
				t.Errorf("preflight took at least %.1f%% of extraction wall time in each of %d rounds, budget is %.0f%%",
					100*best, rounds, 100*preflightWallShareLimit)
			}
		})
	}
}
