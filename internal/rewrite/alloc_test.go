package rewrite

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
)

// maxAllocsPerSubstitution bounds the heap allocations one iteration of
// Algorithm 1 may make, amortized over a whole run. Gate models are written
// into the worker's reused term buffer, and the worker's polynomial keeps
// its monomials, product memo and occurrence lists in flat tables that grow
// by doubling and are reset, not rebuilt, per cone, so what remains is that
// growth plus each cone's compacted result.
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

// Allocation budget of one m=64 Mastrovito cone on a warm worker: the most
// that Compact's copy of any of those cones' expressions allocates on its
// own (34, measured before workers kept their tables, when a warm worker's
// cone allocated up to 85), plus a margin for the cone's governor and
// substitution closure (2) and slack (2).
const (
	compactAllocsM64 = 34
	warmConeMargin   = 4
)

// TestWarmWorkerAllocatesOnlyResult checks that a worker whose tables have
// grown to its largest cone rewrites each further cone into them: what the
// cone allocates is its Compact copy, within a small margin.
func TestWarmWorkerAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: the race detector allocates on its own")
	}
	p, err := polytab.Default(64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(64, p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil)
	for bit := range n.Outputs() {
		if _, err := w.RewriteCone(n, bit, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	worst := 0.0
	for bit := range n.Outputs() {
		var br BitResult
		cone := testing.AllocsPerRun(3, func() { br, _ = w.RewriteCone(n, bit, Options{}) })
		compact := testing.AllocsPerRun(3, func() { br.Expr.Compact() })
		worst = max(worst, cone)
		if cone > compactAllocsM64+warmConeMargin || cone > compact+warmConeMargin {
			t.Errorf("bit %d: a warm worker's cone allocated %.0f times, its Compact copy %.0f; want <= %d + %d and <= the copy + %d",
				bit, cone, compact, compactAllocsM64, warmConeMargin, warmConeMargin)
		}
	}
	t.Logf("m=64 Mastrovito: at most %.0f allocations per cone on a warm worker", worst)
}

// TestRewriteConeBytesIndependentOfM checks that a worker rewriting one
// leased cone allocates for that cone alone: the same two-input cone, read
// from netlists with 64 and 163 outputs, costs the same bytes per call in
// the quietest of five windows of 50 calls. A
// worker that copies the netlist's port lists or cone sizes per cone pays
// O(m) per lease, O(m²) per sharded extraction.
func TestRewriteConeBytesIndependentOfM(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: the race detector allocates on its own")
	}
	// Anything else the process allocates inside a window adds bytes to it
	// and nothing takes them away, so each m keeps its quietest window.
	const runs, windows = 50, 5
	perCall := map[int]uint64{}
	for _, m := range []int{64, 163} {
		// Output 0 is a0 ^ a1, gate 2 in both netlists; the other m-1
		// outputs only widen the netlist's port lists and cone sizes.
		n := netlist.New("wide")
		prev, _ := n.AddInput("a0")
		for i := 1; i <= m; i++ {
			in, err := n.AddInput(fmt.Sprintf("a%d", i))
			if err != nil {
				t.Fatal(err)
			}
			g, err := n.AddGate(netlist.Xor, prev, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.MarkOutput(fmt.Sprintf("z%d", i-1), g); err != nil {
				t.Fatal(err)
			}
			prev = in
		}
		w := NewWorker(nil)
		if _, err := w.RewriteCone(n, 0, Options{}); err != nil { // fills the cone index memo
			t.Fatal(err)
		}
		for i := range windows {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := w.RewriteCone(n, 0, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / runs; i == 0 || b < perCall[m] {
				perCall[m] = b
			}
		}
		t.Logf("m=%d: RewriteCone of a 3-gate cone allocated %d bytes per call", m, perCall[m])
	}
	if perCall[163] > perCall[64] {
		t.Errorf("RewriteCone allocated %d bytes per cone at m=163 against %d at m=64, want no more", perCall[163], perCall[64])
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
