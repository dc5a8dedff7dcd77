package rewrite

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
)

// explodingNetlist builds a circuit whose backward rewriting has no mod-2
// cancellation at all: z = Π_i (a_i ⊕ b_i) expands to 2^l distinct
// monomials — the non-GF blowup the paper warns about, in its purest form.
func explodingNetlist(t testing.TB, l int) *netlist.Netlist {
	t.Helper()
	n := netlist.New("explode")
	sums := make([]int, l)
	for i := 0; i < l; i++ {
		ai, err := n.AddInput(fmt.Sprintf("a%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bi, err := n.AddInput(fmt.Sprintf("b%d", i))
		if err != nil {
			t.Fatal(err)
		}
		x, err := n.AddGate(netlist.Xor, ai, bi)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = x
	}
	for len(sums) > 1 {
		var next []int
		for i := 0; i+1 < len(sums); i += 2 {
			g, err := n.AddGate(netlist.And, sums[i], sums[i+1])
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, g)
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	if err := n.MarkOutput("z", sums[0]); err != nil {
		t.Fatal(err)
	}
	return n
}

// addSimpleOutput appends an extra cheap output (a_0·b_0 style AND over two
// fresh inputs) so multi-cone failure semantics can be observed.
func addSimpleOutput(t testing.TB, n *netlist.Netlist, tag string) {
	t.Helper()
	x, err := n.AddInput("x" + tag)
	if err != nil {
		t.Fatal(err)
	}
	y, err := n.AddInput("y" + tag)
	if err != nil {
		t.Fatal(err)
	}
	g, err := n.AddGate(netlist.And, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.MarkOutput("w"+tag, g); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	n := explodingNetlist(t, 16) // 65536 terms if left unchecked
	const budget = 2048
	res, err := Outputs(n, Options{Threads: 1, BudgetTerms: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not unwrap to *BudgetError", err)
	}
	if be.Budget != budget || be.Terms <= budget {
		t.Errorf("BudgetError = %+v, want Terms > Budget = %d", be, budget)
	}
	// Transient overshoot is bounded by one substitution's expansion: each
	// AND/XOR substitution at most doubles the polynomial.
	if be.Terms > 2*budget {
		t.Errorf("abort at %d terms, want <= 2x budget %d", be.Terms, budget)
	}
	if res == nil {
		t.Fatal("want partial result alongside the error")
	}
	br := res.Bits[0]
	if br.Status != StatusBudget {
		t.Errorf("bit status = %q, want %q", br.Status, StatusBudget)
	}
	if br.Substitutions == 0 || br.PeakTerms <= budget {
		t.Errorf("partial progress not recorded: %+v", br.BitStats)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (budget abort triggers the alternative-order retry)", res.Retries)
	}
}

func TestConeTimeout(t *testing.T) {
	n := explodingNetlist(t, 18)
	res, err := Outputs(n, Options{Threads: 1, ConeDeadline: time.Microsecond})
	if !errors.Is(err, ErrConeTimeout) {
		t.Fatalf("err = %v, want ErrConeTimeout", err)
	}
	if res.Bits[0].Status != StatusTimeout {
		t.Errorf("bit status = %q, want %q", res.Bits[0].Status, StatusTimeout)
	}
}

func TestContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := explodingNetlist(t, 8)
	addSimpleOutput(t, n, "0")
	res, err := Outputs(n, Options{Threads: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, br := range res.Bits {
		if br.Status != StatusCancelled {
			t.Errorf("bit %d status = %q, want %q", i, br.Status, StatusCancelled)
		}
	}
}

func TestSiblingCancellation(t *testing.T) {
	// Single worker, three outputs: the cheap one completes, the exploding
	// one aborts fatally, the queued one must be cancelled, not rewritten.
	n := explodingNetlist(t, 14)
	addSimpleOutput(t, n, "0")
	addSimpleOutput(t, n, "1")
	res, err := Outputs(n, Options{Threads: 1, BudgetTerms: 256})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := res.Bits[0].Status; got != StatusBudget {
		t.Errorf("exploding bit status = %q, want %q", got, StatusBudget)
	}
	if got := res.Bits[1].Status; got != StatusCancelled {
		t.Errorf("queued sibling status = %q, want %q (prompt cancellation)", got, StatusCancelled)
	}
	if got := res.Bits[2].Status; got != StatusCancelled {
		t.Errorf("queued sibling status = %q, want %q", got, StatusCancelled)
	}
}

func TestKeepPartial(t *testing.T) {
	n := explodingNetlist(t, 14)
	addSimpleOutput(t, n, "0")
	res, err := Outputs(n, Options{
		Threads: 1, BudgetTerms: 256, KeepPartial: true, MaxFailures: 1,
	})
	if err != nil {
		t.Fatalf("KeepPartial within tolerance must succeed, got %v", err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", res.Failed)
	}
	if res.Bits[0].Status != StatusBudget {
		t.Errorf("failed bit status = %q, want %q", res.Bits[0].Status, StatusBudget)
	}
	if res.Bits[1].Status != StatusOK || res.Bits[1].Expr.Len() != 1 {
		t.Errorf("healthy bit did not complete: %+v", res.Bits[1])
	}
}

func TestTooManyFailures(t *testing.T) {
	n := explodingNetlist(t, 14)
	// Second exploding cone: reuse the same root under another output name.
	if err := n.MarkOutput("z2", n.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
	_, err := Outputs(n, Options{
		Threads: 1, BudgetTerms: 256, KeepPartial: true, MaxFailures: 1,
	})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("ErrTooManyFailures should wrap the last cone error, got %v", err)
	}
}

func TestPanicContainment(t *testing.T) {
	n := explodingNetlist(t, 4)
	addSimpleOutput(t, n, "0")
	target := n.Outputs()[0] // panic when the worker visits the root gate
	testPanicOutput = target
	defer func() { testPanicOutput = -1 }()

	res, err := Outputs(n, Options{Threads: 1, KeepPartial: true, MaxFailures: 1})
	if err != nil {
		t.Fatalf("contained panic within tolerance must succeed, got %v", err)
	}
	if res.Bits[0].Status != StatusPanic {
		t.Errorf("bit status = %q, want %q", res.Bits[0].Status, StatusPanic)
	}
	if res.Bits[1].Status != StatusOK {
		t.Errorf("sibling bit status = %q, want ok", res.Bits[1].Status)
	}

	// Without KeepPartial the contained panic is a normal fatal error.
	_, err = Outputs(n, Options{Threads: 1})
	if !errors.Is(err, ErrConePanic) {
		t.Fatalf("err = %v, want ErrConePanic", err)
	}
}

func TestAltOrderEquivalent(t *testing.T) {
	// The alternative substitution schedule must compute the same canonical
	// ANF as the default order — it is a different linear extension of the
	// same dependency order, nothing more.
	n := explodingNetlist(t, 6)
	root := n.Outputs()[0]
	def, err := rewriteOutput(n, root, pass{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := rewriteOutput(n, root, pass{order: altOrder(n, n.Cone(root))})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Expr.Equal(alt.Expr) {
		t.Fatal("alternative substitution order changed the canonical ANF")
	}
	if def.Expr.Len() != 64 { // 2^6 monomials, no cancellation
		t.Fatalf("expected 64 terms, got %d", def.Expr.Len())
	}
}

func TestGovernedMatchesUngovernedOnCleanRun(t *testing.T) {
	n := explodingNetlist(t, 8)
	plain, err := Outputs(n, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	governed, err := Outputs(n, Options{
		Threads: 1, Ctx: context.Background(),
		ConeDeadline: time.Minute, BudgetTerms: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Bits[0].Expr.Equal(governed.Bits[0].Expr) {
		t.Fatal("governance changed the result of a clean run")
	}
	if governed.Bits[0].Status != StatusOK {
		t.Fatalf("clean bit status = %q", governed.Bits[0].Status)
	}
}
