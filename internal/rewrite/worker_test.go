package rewrite

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
)

// sameCone reports whether a cone rewritten on a reused worker matches the
// same cone rewritten on a fresh one: an equal expression, the same
// canonical text and the same cost counters.
func sameCone(t *testing.T, what string, got, want BitResult) {
	t.Helper()
	if !got.Expr.Equal(want.Expr) || got.Expr.String() != want.Expr.String() {
		t.Errorf("%s: reused worker gave %v, fresh tables %v", what, got.Expr, want.Expr)
	}
	if got.Substitutions != want.Substitutions || got.PeakTerms != want.PeakTerms ||
		got.FinalTerms != want.FinalTerms || got.Cancelled != want.Cancelled {
		t.Errorf("%s: reused worker counters %+v, fresh tables %+v", what, got.BitStats, want.BitStats)
	}
}

// TestWorkerReuseMatchesFresh runs one worker over the cones of several
// netlists in shuffled orders: deepest cone first (the big cones, then the
// small ones, as Outputs hands them out), shuffled, and smallest first. Every
// cone must come out exactly as it does on a fresh worker, whatever the
// worker's state held before: the gate models of other cones and of other
// netlists.
func TestWorkerReuseMatchesFresh(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	mast, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	mont, err := gen.Montgomery(16, p)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := opt.Synthesize(mont)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*netlist.Netlist{mont, mast, syn, repeatedFaninNetlist(t)}
	fresh := make([][]BitResult, len(nets))
	for i, n := range nets {
		for _, root := range n.Outputs() {
			br, err := new(Worker).rewrite(n, root, pass{})
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = append(fresh[i], br)
		}
	}
	w := NewWorker(nil)
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		for i, n := range nets {
			order := ConeOrder(n)
			switch round {
			case 1:
				r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			case 2:
				slices.Reverse(order)
			}
			outs := n.Outputs()
			for _, bit := range order {
				got, err := w.rewrite(n, outs[bit], pass{})
				if err != nil {
					t.Fatal(err)
				}
				sameCone(t, n.Name+"/"+n.OutputNames()[bit], got, fresh[i][bit])
			}
		}
	}
}

// TestWorkerAfterAbort checks the two ways a cone can leave a worker
// mid-cone: a budget abort, followed by its retry, and a panic. Healthy
// cones rewritten on the same worker after either must match a fresh one.
func TestWorkerAfterAbort(t *testing.T) {
	n := explodingNetlist(t, 6)
	addSimpleOutput(t, n, "0")
	addSimpleOutput(t, n, "1")
	var want []BitResult
	for bit := range n.Outputs() {
		br, err := NewWorker(nil).RewriteCone(n, bit, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, br)
	}
	w := NewWorker(nil)
	healthy := func(stage string) {
		t.Helper()
		for _, bit := range []int{1, 2, 0} {
			got, err := w.RewriteCone(n, bit, Options{})
			if err != nil {
				t.Fatalf("%s: bit %d: %v", stage, bit, err)
			}
			sameCone(t, stage, got, want[bit])
		}
	}
	if _, err := w.RewriteCone(n, 0, Options{BudgetTerms: 16}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget 16: err = %v, want ErrBudgetExceeded", err)
	}
	healthy("after a budget abort")

	testPanicOutput = n.Outputs()[0]
	_, err := w.RewriteCone(n, 0, Options{Ctx: context.Background()})
	testPanicOutput = -1
	if !errors.Is(err, ErrConePanic) {
		t.Fatalf("err = %v, want ErrConePanic", err)
	}
	healthy("after a panic")
}
