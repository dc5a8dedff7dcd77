package rewrite

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
)

// explodingNetlist builds a circuit whose backward rewriting has no mod-2
// cancellation at all: z = Π_i (a_i ⊕ b_i) expands to 2^l distinct
// monomials — the non-GF blowup the paper warns about, in its purest form.
func explodingNetlist(t testing.TB, l int) *netlist.Netlist {
	t.Helper()
	n := netlist.New("explode")
	addExploding(t, n, l, "")
	return n
}

// addExploding appends explodingNetlist's circuit over 2l fresh inputs
// named after tag and marks its root as output "z"+tag.
func addExploding(t testing.TB, n *netlist.Netlist, l int, tag string) {
	t.Helper()
	sums := make([]int, l)
	for i := 0; i < l; i++ {
		ai, err := n.AddInput(fmt.Sprintf("a%s%d", tag, i))
		if err != nil {
			t.Fatal(err)
		}
		bi, err := n.AddInput(fmt.Sprintf("b%s%d", tag, i))
		if err != nil {
			t.Fatal(err)
		}
		x, err := n.AddGate(netlist.Xor, ai, bi)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = x
	}
	if err := n.MarkOutput("z"+tag, gateTree(t, n, netlist.And, sums)); err != nil {
		t.Fatal(err)
	}
}

// gateTree appends a balanced tree of typ gates over leaves and returns its
// root.
func gateTree(t testing.TB, n *netlist.Netlist, typ netlist.GateType, leaves []int) int {
	t.Helper()
	for len(leaves) > 1 {
		var next []int
		for i := 0; i+1 < len(leaves); i += 2 {
			g, err := n.AddGate(typ, leaves[i], leaves[i+1])
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, g)
		}
		if len(leaves)%2 == 1 {
			next = append(next, leaves[len(leaves)-1])
		}
		leaves = next
	}
	return leaves[0]
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
	def, err := new(Worker).rewrite(n, root, pass{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := new(Worker).rewrite(n, root, pass{order: altOrder(n, n.Cone(root))})
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

// TestGovernorDeadlineClasses pins how poll classifies the closed channel
// of a governed cone: a parent context whose deadline passes cancels the
// cone with the parent's error, while the cone's own deadline times it out.
func TestGovernorDeadlineClasses(t *testing.T) {
	n := explodingNetlist(t, 18)
	for _, tc := range []struct {
		name         string
		parent, cone time.Duration // 0 = no deadline
		status       Status
		err          error
	}{
		{"parent deadline", 10 * time.Millisecond, time.Hour, StatusCancelled, context.DeadlineExceeded},
		{"cone deadline", 0, 10 * time.Millisecond, StatusTimeout, ErrConeTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.parent > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.parent)
				defer cancel()
			}
			br, err := NewWorker(nil).RewriteCone(n, 0, Options{Ctx: ctx, ConeDeadline: tc.cone})
			if br.Status != tc.status || !errors.Is(err, tc.err) {
				t.Fatalf("cone ended %q with %v, want %q with %v", br.Status, err, tc.status, tc.err)
			}
			t.Logf("stopped after %d substitutions", br.Substitutions)
		})
	}
}

// retryRescuedNetlist builds z = G·(X ⊕ X'), where X and X' are two AND
// trees over the same 16 XOR leaves and G is an XOR tree over 8 fresh
// inputs. The default descending-ID order expands G into 8 terms before X
// and X' meet, so the polynomial reaches 16 terms; the level-driven retry
// reaches X and X' leaves first, where they cancel, and peaks at 4 terms.
func retryRescuedNetlist(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New("rescued")
	gate := func(typ netlist.GateType, fanin ...int) int {
		g, err := n.AddGate(typ, fanin...)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	input := func(name string) int {
		in, err := n.AddInput(name)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	leaves := make([]int, 16)
	for i := range leaves {
		leaves[i] = gate(netlist.Xor, input(fmt.Sprintf("a%d", i)), input(fmt.Sprintf("b%d", i)))
	}
	h := gate(netlist.Xor, gateTree(t, n, netlist.And, leaves), gateTree(t, n, netlist.And, leaves))
	cs := make([]int, 8)
	for i := range cs {
		cs[i] = input(fmt.Sprintf("c%d", i))
	}
	if err := n.MarkOutput("z", gate(netlist.And, gateTree(t, n, netlist.Xor, cs), h)); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBudgetRetrySharesConeDeadline checks that a budget retry runs against
// the first attempt's deadline: once that deadline has passed, a retry that
// would rescue the cone fails instead.
func TestBudgetRetrySharesConeDeadline(t *testing.T) {
	n := retryRescuedNetlist(t)
	opts := Options{Threads: 1, BudgetTerms: 8}
	res, err := Outputs(n, opts)
	if err != nil || res.Retries != 1 {
		t.Fatalf("without a deadline: err %v after %d retries, want the retry to rescue the cone", err, res.Retries)
	}

	testBeforeRetry = func(g *governor) {
		<-g.done // the first attempt's deadline passes before the retry starts
		if st, err := g.poll(); st != StatusTimeout || err != ErrConeTimeout {
			t.Errorf("retry's governor polls %q, %v; want a timeout", st, err)
		}
	}
	defer func() { testBeforeRetry = nil }()
	opts.ConeDeadline = 20 * time.Millisecond
	res, err = Outputs(n, opts)
	// The retry stops before its first substitution, so the ladder reports
	// the first attempt, which got further.
	if !errors.Is(err, ErrBudgetExceeded) || res.Bits[0].Status != StatusBudget || res.Retries != 1 {
		t.Fatalf("with a spent deadline: err %v, status %q, %d retries; want the first attempt's budget abort after 1 retry",
			err, res.Bits[0].Status, res.Retries)
	}
}

// TestRecorderCountsExactAfterBudgetAbort checks the batched telemetry on
// every exit path of a 2-worker run: one cone aborts on the budget, a
// sibling in flight is cancelled mid-cone and queued ones never start. The
// substitutions and cancellations counters must still equal the per-bit
// stats, plus the attempt of the retried cone that its BitResult does not
// report, and live_terms must drain to 0.
func TestRecorderCountsExactAfterBudgetAbort(t *testing.T) {
	p, err := polytab.Default(32)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(32, p)
	if err != nil {
		t.Fatal(err)
	}
	addExploding(t, n, 14, "x")
	const budget = 256
	rec := obs.NewRecorder()
	res, err := Outputs(n, Options{Threads: 2, Recorder: rec, BudgetTerms: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}

	boom := len(res.Bits) - 1
	root := n.Outputs()[boom]
	gov := &governor{budget: budget}
	first, _ := new(Worker).rewrite(n, root, pass{gov: gov})
	retry, _ := new(Worker).rewrite(n, root, pass{gov: gov, order: altOrder(n, n.Cone(root))})
	if got := res.Bits[boom].Substitutions; got != max(first.Substitutions, retry.Substitutions) {
		t.Fatalf("retried cone reports %d substitutions, want the larger of %d and %d",
			got, first.Substitutions, retry.Substitutions)
	}
	wantSubst := int64(first.Substitutions + retry.Substitutions)
	wantCancel := int64(first.Cancelled + retry.Cancelled)
	longest := 0
	for bit, br := range res.Bits {
		if bit != boom {
			wantSubst += int64(br.Substitutions)
			wantCancel += int64(br.Cancelled)
			longest = max(longest, br.Substitutions)
		}
	}
	if longest <= tallyEvery {
		t.Fatalf("longest sibling cone ran %d substitutions, want more than one tally batch (%d)", longest, tallyEvery)
	}
	s := rec.Snapshot()
	if got := s.Counters["substitutions"]; got != wantSubst {
		t.Errorf("substitutions counter %d, want %d", got, wantSubst)
	}
	if got := s.Counters["cancellations"]; got != wantCancel {
		t.Errorf("cancellations counter %d, want %d", got, wantCancel)
	}
	if s.Gauges["live_terms"] != 0 || s.Gauges["workers_busy"] != 0 {
		t.Errorf("gauges not drained: %v", s.Gauges)
	}
}
