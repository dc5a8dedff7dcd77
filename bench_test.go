// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark generates the paper's benchmark
// circuit outside the timed region and measures the extraction pipeline
// (backward rewriting in 16 threads + Algorithm 2), i.e. exactly what the
// paper's runtime columns time.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTableI -benchtime=3x
//
// The larger Montgomery sizes (283, 409) of Table II are exercised by
// cmd/gfbench rather than here to keep `go test -bench=.` minutes-scale;
// see EXPERIMENTS.md for full-size measured numbers.
package gfre_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	gfre "github.com/galoisfield/gfre"
	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/eval"
)

func benchExtraction(b *testing.B, n *gfre.Netlist, want gfre.Poly) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := gfre.Extract(n, gfre.Options{Threads: eval.Threads, SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		if !ext.P.Equal(want) {
			b.Fatalf("extracted %v, want %v", ext.P, want)
		}
	}
}

// BenchmarkTableI: Mastrovito multipliers with NIST-recommended P(x),
// m = 64..571 (all rows of the paper's Table I).
func BenchmarkTableI(b *testing.B) {
	for _, m := range []int{64, 96, 163, 233, 283, 409, 571} {
		p, ok := gfre.NISTPolynomial(m)
		if !ok {
			b.Fatal("missing NIST polynomial")
		}
		n, err := gfre.NewMastrovitoMatrix(m, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Mastrovito/m=%d", m), func(b *testing.B) {
			benchExtraction(b, n, p)
		})
	}
}

// BenchmarkTableII: flattened Montgomery multipliers with NIST P(x).
// The paper's rows run to m=409 (which memory-outs at 32 GB there); the
// heavyweight tail lives in cmd/gfbench.
func BenchmarkTableII(b *testing.B) {
	for _, m := range []int{64, 96, 163, 233} {
		p, ok := gfre.NISTPolynomial(m)
		if !ok {
			b.Fatal("missing NIST polynomial")
		}
		n, err := gfre.NewMontgomery(m, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Montgomery/m=%d", m), func(b *testing.B) {
			benchExtraction(b, n, p)
		})
	}
}

// BenchmarkTableIII: extraction on synthesized (optimized + mapped)
// multipliers, the Table III scenario.
func BenchmarkTableIII(b *testing.B) {
	for _, m := range []int{64, 163} {
		p, _ := gfre.NISTPolynomial(m)
		mast, err := gfre.NewMastrovitoMatrix(m, p)
		if err != nil {
			b.Fatal(err)
		}
		mastSyn, err := gfre.Synthesize(mast)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Mastrovito-syn/m=%d", m), func(b *testing.B) {
			benchExtraction(b, mastSyn, p)
		})
		mont, err := gfre.NewMontgomery(m, p)
		if err != nil {
			b.Fatal(err)
		}
		montSyn, err := gfre.Synthesize(mont)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Montgomery-syn/m=%d", m), func(b *testing.B) {
			benchExtraction(b, montSyn, p)
		})
	}
}

// BenchmarkTableIV: GF(2^233) Mastrovito multipliers built with the four
// architecture-optimal polynomials (Intel-Pentium, ARM, MSP430, NIST).
func BenchmarkTableIV(b *testing.B) {
	for _, ap := range gfre.Arch233Polynomials() {
		n, err := gfre.NewMastrovitoMatrix(233, ap.P)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ap.Arch, func(b *testing.B) {
			benchExtraction(b, n, ap.P)
		})
	}
}

// BenchmarkFigure4: the per-output-bit rewriting that Figure 4 profiles —
// raw Algorithm 1 across all 233 output bits, without Algorithm 2 on top,
// for the fastest (NIST) and slowest (Pentium) polynomial of Table IV.
func BenchmarkFigure4(b *testing.B) {
	for _, arch := range []string{"NIST-recommended", "Intel-Pentium"} {
		var p gfre.Poly
		for _, ap := range gfre.Arch233Polynomials() {
			if ap.Arch == arch {
				p = ap.P
			}
		}
		n, err := gfre.NewMastrovitoMatrix(233, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arch, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw, err := gfre.Rewrite(n, gfre.RewriteOptions{Threads: eval.Threads})
				if err != nil {
					b.Fatal(err)
				}
				if len(rw.Bits) != 233 {
					b.Fatal("missing bits")
				}
			}
		})
	}
}

// BenchmarkExtract measures the telemetry layer's cost on the extraction
// pipeline: "norecorder" is the nil-recorder path (every instrumentation
// site reduced to one predictable branch — expected within 2% of the
// pre-telemetry pipeline), "recorder" attaches a full recorder with an
// in-memory sink, i.e. the -json / gfbench configuration, "journal"
// attaches the bounded ring-buffer journal that backs gfred's SSE streams
// (the gfred worker configuration — expected within 3% of "norecorder"),
// and "governed"
// turns on the full resource governor (context deadline, per-cone deadline,
// term budget) on a clean circuit that never trips any limit — expected
// within 2% of "norecorder", since governance on the happy path is one
// counter compare and one atomic load per substitution batch.
func BenchmarkExtract(b *testing.B) {
	p, _ := gfre.NISTPolynomial(64)
	n, err := gfre.NewMastrovitoMatrix(64, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("norecorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext, err := gfre.Extract(n, gfre.Options{Threads: eval.Threads, SkipVerify: true})
			if err != nil {
				b.Fatal(err)
			}
			if !ext.P.Equal(p) {
				b.Fatal("wrong P")
			}
		}
	})
	b.Run("recorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := gfre.NewRecorder(gfre.NewMemorySink())
			ext, err := gfre.Extract(n, gfre.Options{Threads: eval.Threads, SkipVerify: true, Recorder: rec})
			if err != nil {
				b.Fatal(err)
			}
			if !ext.P.Equal(p) {
				b.Fatal("wrong P")
			}
		}
	})
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := gfre.NewRecorder(gfre.NewJournal(0))
			ext, err := gfre.Extract(n, gfre.Options{Threads: eval.Threads, SkipVerify: true, Recorder: rec})
			if err != nil {
				b.Fatal(err)
			}
			if !ext.P.Equal(p) {
				b.Fatal("wrong P")
			}
		}
	})
	b.Run("governed", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext, err := gfre.Extract(n, gfre.Options{
				Threads: eval.Threads, SkipVerify: true,
				Ctx: ctx, ConeDeadline: time.Hour, BudgetTerms: 1 << 30,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !ext.P.Equal(p) {
				b.Fatal("wrong P")
			}
		}
	})
}

// BenchmarkConeSort isolates the per-bit cone construction that precedes
// every backward-rewriting pass: topologically sorting the fan-in cone of
// all 64 output bits of the Montgomery multiplier (the design where cone
// overlap is heaviest — each MonPro output cone spans nearly the whole
// circuit). Before the bitset-DFS rewrite this step cost more than the
// rewriting itself at m=64 (206ms of a 377ms total); now it is a
// counting-sort sweep over dense gate IDs and should stay an order of
// magnitude below the rewrite time reported by BenchmarkTableII.
func BenchmarkConeSort(b *testing.B) {
	p, _ := gfre.NISTPolynomial(64)
	n, err := gfre.NewMontgomery(64, p)
	if err != nil {
		b.Fatal(err)
	}
	outs := n.Outputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, root := range outs {
			total += len(n.Cone(root))
		}
		if total == 0 {
			b.Fatal("empty cones")
		}
	}
}

// BenchmarkSubstitute measures the rewriting engine's inner loop at the
// root level: a chain of variable eliminations against a polynomial sized
// like a mid-rewrite Montgomery cone frontier (hundreds of live terms).
// Each iteration rebuilds the chain from a cloned start state so the timed
// region is substitution work only, not interning warm-up. It substitutes
// prebuilt polynomials, so it never sees the cost of building each gate's
// model, which was most of the rewriting loop's time until gate models
// became Terms; BenchmarkRewriteCone in internal/rewrite times that real
// path. The companion zero-alloc guard for the XOR-merge path that
// Substitute drives lives in internal/anf (TestSteadyStateXORMergeZeroAllocs).
func BenchmarkSubstitute(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base := anf.NewPoly()
	for i := 0; i < 300; i++ {
		var vars []anf.Var
		for v := 1; v <= 16; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, anf.Var(v))
			}
		}
		base.Toggle(anf.NewMono(vars...))
	}
	// One gate-style expansion per eliminated variable, over strictly lower
	// variables so the chain is acyclic (as in backward rewriting).
	exprs := make([]anf.Poly, 17)
	for v := 16; v >= 9; v-- {
		e := anf.NewPoly()
		for t := 0; t < 3; t++ {
			a := anf.Var(1 + rng.Intn(v-1))
			bb := anf.Var(1 + rng.Intn(v-1))
			e.Toggle(anf.MulMono(anf.NewMono(a), anf.NewMono(bb)))
		}
		exprs[v] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		for v := 16; v >= 9; v-- {
			p.Substitute(anf.Var(v), exprs[v])
		}
		if p.Len() == 0 && base.Len() != 0 {
			b.Fatal("substitution chain collapsed unexpectedly")
		}
	}
}

// BenchmarkSectionIID: the XOR-cost model used throughout Section II-D.
func BenchmarkSectionIID(b *testing.B) {
	p, _ := gfre.NISTPolynomial(571)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if gfre.ReductionXORCount(p) == 0 {
			b.Fatal("zero cost")
		}
	}
}

// BenchmarkAblationThreads sweeps the worker-pool size for a fixed design —
// the knob the paper exposes ("the users can adjust the parallel effort
// depending on the hardware resource").
func BenchmarkAblationThreads(b *testing.B) {
	p, _ := gfre.NISTPolynomial(163)
	n, err := gfre.NewMastrovitoMatrix(163, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ext, err := gfre.Extract(n, gfre.Options{Threads: threads, SkipVerify: true})
				if err != nil {
					b.Fatal(err)
				}
				if !ext.P.Equal(p) {
					b.Fatal("wrong P")
				}
			}
		})
	}
}

// BenchmarkAblationArchitectures compares extraction cost across all five
// implemented multiplier architectures at a fixed field — the generalized
// form of the paper's Mastrovito-vs-Montgomery comparison.
func BenchmarkAblationArchitectures(b *testing.B) {
	p, _ := gfre.NISTPolynomial(64)
	builders := []struct {
		name  string
		build func() (*gfre.Netlist, error)
	}{
		{"mastrovito", func() (*gfre.Netlist, error) { return gfre.NewMastrovito(64, p) }},
		{"matrix", func() (*gfre.Netlist, error) { return gfre.NewMastrovitoMatrix(64, p) }},
		{"karatsuba", func() (*gfre.Netlist, error) { return gfre.NewKaratsuba(64, p) }},
		{"digitserial4", func() (*gfre.Netlist, error) { return gfre.NewDigitSerial(64, p, 4) }},
		{"montgomery", func() (*gfre.Netlist, error) { return gfre.NewMontgomery(64, p) }},
	}
	for _, tc := range builders {
		n, err := tc.build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			benchExtraction(b, n, p)
		})
	}
}

// BenchmarkAblationPortInference measures the overhead of inferring the
// port mapping versus trusting port names.
func BenchmarkAblationPortInference(b *testing.B) {
	p, _ := gfre.NISTPolynomial(64)
	n, err := gfre.NewMastrovito(64, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("named", func(b *testing.B) {
		benchExtraction(b, n, p)
	})
	b.Run("inferred", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ext, _, err := gfre.ExtractInferred(n, gfre.Options{Threads: eval.Threads, SkipVerify: true})
			if err != nil {
				b.Fatal(err)
			}
			if !ext.P.Equal(p) {
				b.Fatal("wrong P")
			}
		}
	})
}

// BenchmarkAblationForwardVsBackward: the paper's backward, per-output-cone
// rewriting against the naive forward-abstraction baseline that materializes
// an input-level expression for every internal gate.
func BenchmarkAblationForwardVsBackward(b *testing.B) {
	p, _ := gfre.NISTPolynomial(64)
	mont, err := gfre.NewMontgomery(64, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("backward16/montgomery64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gfre.Rewrite(mont, gfre.RewriteOptions{Threads: eval.Threads}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forward/montgomery64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gfre.RewriteForward(mont); err != nil {
				b.Fatal(err)
			}
		}
	})
}
