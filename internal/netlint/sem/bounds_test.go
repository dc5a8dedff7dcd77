package sem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/randnet"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// TestBoundsAreSound is the differential test every cost prediction rests
// on: over a diffcheck corpus (every architecture, raw, synthesized,
// scrambled and locked) and adversarial random DAGs, the semantic sweep's
// per-output degree bounds must be at least the degrees of the ANF that
// backward rewriting actually produces, and its support must include every
// input the ANF reads. Exact outputs must match exactly.
func TestBoundsAreSound(t *testing.T) {
	var corpus []*netlist.Netlist
	for i := 0; i < 30; i++ {
		c := diffcheck.NewCase(i, diffcheck.Config{Seed: 11, MinM: 3, MaxM: 10})
		n, err := c.Generate()
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, n)
		if s, err := opt.Synthesize(n); err == nil && i%3 == 0 {
			corpus = append(corpus, s)
		}
		if s, err := diffcheck.Scramble(n, int64(i)); err == nil && i%4 == 1 {
			corpus = append(corpus, s)
		}
		if i%5 == 2 {
			style := gen.ObfStyle(i % 3)
			if s, _, err := gen.Obfuscate(n, gen.ObfuscateOptions{Style: style, Keys: 1 + i%3, Seed: int64(i)}); err == nil {
				corpus = append(corpus, s)
			}
		}
	}
	for i := 0; i < 60; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		n, err := randnet.New(r, randnet.Config{
			Inputs: 2 + i%10, Gates: 4 + 3*i, Outputs: 1 + i%6,
			Luts: i%2 == 0, Constants: i%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, n)
	}

	checked := 0
	for ci, n := range corpus {
		r := sem.Analyze(n, sem.Options{})
		class := map[anf.Var]sem.Class{}
		for pos, id := range n.Inputs() {
			class[anf.Var(id)] = r.Ports.Class[pos]
		}
		// Random DAGs can explode; a budget keeps the oracle affordable and
		// the cones it drops are simply not compared.
		res, _ := rewrite.Outputs(n, rewrite.Options{Threads: 1, BudgetTerms: 1 << 14, KeepPartial: true})
		for bit, of := range r.Outputs {
			br := res.Bits[bit]
			if br.Status.Failed() {
				continue
			}
			checked++
			where := fmt.Sprintf("netlist %d (%s) output %s", ci, n.Name, of.Name)
			var degA, degB, degKey, degTot int
			br.Expr.Terms(func(vs []anf.Var) bool {
				var a, b, k int
				for _, v := range vs {
					switch class[v] {
					case sem.ClassA:
						a++
					case sem.ClassB:
						b++
					default:
						k++
					}
				}
				degA, degB, degKey, degTot = max(degA, a), max(degB, b), max(degKey, k), max(degTot, len(vs))
				return true
			})
			if of.DegA < degA || of.DegB < degB || of.DegKey < degKey || of.DegTot < degTot {
				t.Errorf("%s: sem bounds a/b/key/total %d/%d/%d/%d below the ANF's %d/%d/%d/%d",
					where, of.DegA, of.DegB, of.DegKey, of.DegTot, degA, degB, degKey, degTot)
			}
			if of.Exact && br.Expr.Len() > 0 && (of.DegA != degA || of.DegB != degB || of.DegKey != degKey || of.DegTot != degTot) {
				t.Errorf("%s: exact degrees a/b/key/total %d/%d/%d/%d, the ANF's are %d/%d/%d/%d",
					where, of.DegA, of.DegB, of.DegKey, of.DegTot, degA, degB, degKey, degTot)
			}
			if c, ok := r.Const(of.Gate); ok {
				want := anf.Constant(c)
				if !br.Expr.Equal(want) {
					t.Errorf("%s: sem proves constant %v, the ANF is %s", where, c, br.Expr)
				}
			}
			supp := map[int]bool{}
			for _, id := range r.SupportInputs(of.Gate) {
				supp[id] = true
			}
			if len(supp) != of.SupportSize {
				t.Errorf("%s: support size %d, support lists %d inputs", where, of.SupportSize, len(supp))
			}
			for _, v := range br.Expr.SupportVars() {
				if !supp[int(v)] {
					t.Errorf("%s: the ANF reads input %s outside the sem support", where, n.NameOf(int(v)))
				}
			}
		}
	}
	if checked < 200 {
		t.Errorf("only %d outputs compared", checked)
	}
	t.Logf("%d netlists, %d outputs compared", len(corpus), checked)
}
