package anf_test

import (
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
)

// TestSteadyStateXORMergeZeroAllocs pins the packed core's headline
// property: once a polynomial's working set is interned (tables sized,
// occurrence lists built), the XOR-merge path — Toggle and AddInPlace —
// performs no heap allocation at all. Toggling is pure bit arithmetic and
// merge translation is a probe of the flat intern table that hashes the
// monomial's variable list in place, so cancellation churn over known
// monomials generates no garbage. (The rewriting loop as a whole still
// allocates as its polynomial grows; TestRewriteAllocsPerSubstitution in
// internal/rewrite bounds that.) A regression here shows up as
// GC pressure on every large-m extraction before it shows up on any wall
// clock, which is why it is a test and not just a benchmark number.
func TestSteadyStateXORMergeZeroAllocs(t *testing.T) {
	p := anf.NewPoly()
	q := anf.FromMonos(
		anf.NewMono(1), anf.NewMono(2), anf.NewMono(1, 2),
		anf.NewMono(2, 3), anf.NewMono(1, 3, 4), anf.NewMono(4, 5, 6),
		anf.MonoOne,
	)
	m := anf.NewMono(3, 5, 7)
	// Warm up: intern q's monomials and m into p's table, size the bitset,
	// build the occurrence lists.
	p.AddInPlace(q)
	p.AddInPlace(q)
	p.Toggle(m)
	p.Toggle(m)

	if avg := testing.AllocsPerRun(200, func() {
		p.AddInPlace(q) // inserts all terms
		p.AddInPlace(q) // cancels them again
	}); avg != 0 {
		t.Errorf("steady-state AddInPlace allocates %.1f objects per merge pair, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		p.Toggle(m)
		p.Toggle(m)
	}); avg != 0 {
		t.Errorf("steady-state Toggle allocates %.1f objects per toggle pair, want 0", avg)
	}
}

// BenchmarkXORMerge measures the steady-state merge path the zero-alloc
// guard above protects: one full insert+cancel round trip of a 7-term
// operand.
func BenchmarkXORMerge(b *testing.B) {
	p := anf.NewPoly()
	q := anf.FromMonos(
		anf.NewMono(1), anf.NewMono(2), anf.NewMono(1, 2),
		anf.NewMono(2, 3), anf.NewMono(1, 3, 4), anf.NewMono(4, 5, 6),
		anf.MonoOne,
	)
	p.AddInPlace(q)
	p.AddInPlace(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddInPlace(q)
		p.AddInPlace(q)
	}
}
