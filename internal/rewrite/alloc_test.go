package rewrite

import (
	"runtime"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
)

// maxAllocsPerSubstitution bounds the heap allocations one iteration of
// Algorithm 1 may make, amortized over a whole run. Gate models are written
// into the worker's reused term buffer, and the cone's polynomial keeps its
// monomials, product memo and occurrence lists in flat tables that grow by
// doubling, so what remains is that growth plus each cone's own tables and
// compacted result (0.3–0.4 per substitution on the designs below).
const maxAllocsPerSubstitution = 1

// TestRewriteAllocsPerSubstitution pins the allocation rate of the rewriting
// loop on single-threaded runs, where MemStats.Mallocs counts exactly the
// run's own allocations. A regression shows up as GC pressure on every
// large-m extraction before it shows up on any wall clock.
func TestRewriteAllocsPerSubstitution(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: the race detector allocates on its own")
	}
	p, err := polytab.Default(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arch  string
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{
		{"mastrovito", gen.Mastrovito},
		{"montgomery", gen.Montgomery},
	} {
		n, err := tc.build(64, p)
		if err != nil {
			t.Fatal(err)
		}
		n.ConeSizes() // the cone index is preflight's allocation, not the loop's
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Outputs(n, Options{Threads: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.TotalSubstitutions())
		t.Logf("%s m=64: %.2f allocations per substitution (%d substitutions)", tc.arch, per, res.TotalSubstitutions())
		if per > maxAllocsPerSubstitution {
			t.Errorf("%s m=64: %.2f heap allocations per substitution, want <= %d",
				tc.arch, per, maxAllocsPerSubstitution)
		}
	}
}

// BenchmarkRewriteCone times rewriting's real path on one m=64 Mastrovito
// cone: the fused cone walk, GateTerms into the worker's term buffer,
// SubstituteTerms and Compact. The BenchmarkSubstitute microbenchmarks
// substitute prebuilt polynomials and so never see the cost of building gate
// models.
func BenchmarkRewriteCone(b *testing.B) {
	p, err := polytab.Default(64)
	if err != nil {
		b.Fatal(err)
	}
	n, err := gen.Mastrovito(64, p)
	if err != nil {
		b.Fatal(err)
	}
	root := n.Outputs()[32]
	w := NewWorker(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.rewrite(n, root, pass{}); err != nil {
			b.Fatal(err)
		}
	}
}
