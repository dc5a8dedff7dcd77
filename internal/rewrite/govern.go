// Resource governance for backward rewriting: per-cone term budgets and
// deadlines, cooperative cancellation, panic containment and a bounded retry
// ladder. The paper assumes well-formed GF(2^m) multipliers, whose rewriting
// is cancellation-heavy and cheap; adversarial or damaged netlists can make
// the intermediate polynomial blow up exponentially instead (the non-GF
// explosion the paper warns about in Section V). The governor turns that
// failure mode from an OOM kill into a typed, per-cone error with partial
// progress preserved.
package rewrite

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
)

// Sentinel errors; use errors.Is against them.
var (
	// ErrBudgetExceeded means a cone's intermediate polynomial outgrew the
	// configured term budget. The returned BitResult still carries the cost
	// counters accumulated up to the abort.
	ErrBudgetExceeded = errors.New("rewrite: per-cone term budget exceeded")
	// ErrConeTimeout means a single cone exceeded Options.ConeDeadline.
	ErrConeTimeout = errors.New("rewrite: per-cone deadline exceeded")
	// ErrConePanic means a worker panicked while rewriting a cone; the panic
	// was contained and converted into this error instead of taking down the
	// process.
	ErrConePanic = errors.New("rewrite: panic during cone rewriting")
	// ErrTooManyFailures means more cones failed than Options.MaxFailures
	// allows under KeepPartial.
	ErrTooManyFailures = errors.New("rewrite: failed cones exceed tolerance")
)

// BudgetError is the concrete error behind ErrBudgetExceeded; it records how
// far the cone got before the governor stopped it.
type BudgetError struct {
	Bit           int    // output position
	Name          string // output port name
	Terms         int    // live terms when the budget tripped
	Budget        int    // the configured ceiling
	Substitutions int    // rewriting steps completed before the abort
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("rewrite: cone %q (bit %d): %d live terms exceed budget %d after %d substitutions",
		e.Name, e.Bit, e.Terms, e.Budget, e.Substitutions)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Status classifies how a single output cone ended.
type Status string

const (
	// StatusOK is a completed cone; for backward compatibility the zero
	// value "" also reads as OK (see BitResult.Failed).
	StatusOK Status = "ok"
	// StatusBudget marks a cone aborted by the term budget.
	StatusBudget Status = "budget"
	// StatusTimeout marks a cone aborted by its per-cone deadline.
	StatusTimeout Status = "timeout"
	// StatusPanic marks a cone whose worker panicked (contained).
	StatusPanic Status = "panic"
	// StatusCancelled marks a cone cut short because a sibling failed
	// fatally or the caller's context ended; the cone itself is innocent.
	StatusCancelled Status = "cancelled"
	// StatusError marks any other per-cone failure (e.g. a structural
	// error such as a non-input variable surviving rewriting).
	StatusError Status = "error"
)

// Failed reports whether the cone ended without an expression. The zero
// Status counts as OK so that pre-governance constructors of BitResult keep
// working.
func (s Status) Failed() bool { return s != "" && s != StatusOK }

// FailurePolicy is the rule every scheduler applies to a run's terminal
// cones: without KeepPartial the first failure ends the run with that
// cone's error; under KeepPartial one failure beyond MaxFailures (when
// positive) ends it with ErrTooManyFailures. Cancelled cones never count —
// they are collateral of another failure or of the caller's context. It is
// safe for concurrent use.
type FailurePolicy struct {
	keepPartial bool
	maxFailures int

	mu       sync.Mutex
	failures int
	err      error
}

// NewFailurePolicy returns the failure rule of opts' KeepPartial and
// MaxFailures.
func NewFailurePolicy(opts Options) *FailurePolicy {
	return &FailurePolicy{keepPartial: opts.KeepPartial, maxFailures: opts.MaxFailures}
}

// Record counts the terminal cone br and returns the run's fatal error the
// one time the rule trips, nil otherwise. err is the cone's error when the
// caller holds it; nil rebuilds it from br's Status and Err, the form a
// result keeps after crossing the wire.
func (f *FailurePolicy) Record(br BitResult, err error) error {
	if !br.Status.Failed() || br.Status == StatusCancelled {
		return nil
	}
	if err == nil {
		err = coneErr(br)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failures++
	switch {
	case f.err != nil:
		return nil
	case !f.keepPartial:
		f.err = err
	case f.maxFailures > 0 && f.failures > f.maxFailures:
		f.err = fmt.Errorf("%w: %d cones failed (tolerate %d), last: %w",
			ErrTooManyFailures, f.failures, f.maxFailures, err)
	default:
		return nil
	}
	return f.err
}

// Err returns the run's fatal error once the rule has tripped.
func (f *FailurePolicy) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// coneError is a failed cone's error rebuilt from its Status and message:
// the message is the worker's own, and errors.Is classifies it under the
// sentinel the worker's error carried.
type coneError struct {
	kind error
	msg  string
}

func (e *coneError) Error() string { return e.msg }
func (e *coneError) Unwrap() error { return e.kind }

func coneErr(br BitResult) error {
	switch br.Status {
	case StatusBudget:
		return &coneError{ErrBudgetExceeded, br.Err}
	case StatusTimeout:
		return &coneError{ErrConeTimeout, br.Err}
	case StatusPanic:
		return &coneError{ErrConePanic, br.Err}
	default:
		return errors.New(br.Err)
	}
}

// governor enforces the per-cone resource policy inside the substitution
// loop. A nil governor disables every check.
type governor struct {
	ctx context.Context
	// done is ctx.Done(), read once per cone: polling it is a non-blocking
	// receive, where ctx.Err() takes the lock of the context every worker
	// of a run shares.
	done     <-chan struct{}
	deadline time.Time // zero = no per-cone deadline
	budget   int       // max live terms, 0 = unlimited
}

// poll checks cancellation and the cone deadline. It runs once per
// substitution actually performed — substitutions dominate the loop cost by
// orders of magnitude, so the channel poll and the clock read are noise
// (see BenchmarkExtract/governed).
func (g *governor) poll() (Status, error) {
	if g == nil {
		return StatusOK, nil
	}
	select {
	case <-g.done:
		return StatusCancelled, g.ctx.Err()
	default:
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return StatusTimeout, ErrConeTimeout
	}
	return StatusOK, nil
}

// charge checks the live-term budget after a substitution landed. The check
// is post-hoc rather than predictive on purpose: mod-2 cancellation (the
// paper's central phenomenon) makes the projected k·|e| expansion a wild
// overestimate on legitimate multipliers, so a pre-check would abort healthy
// cones. Transient overshoot is bounded by one substitution's expansion.
func (g *governor) charge(terms int) bool {
	return g != nil && g.budget > 0 && terms > g.budget
}

// testPanicOutput, when >= 0, makes Worker.rewrite panic upon visiting that
// gate ID. The public API cannot build a netlist that panics mid-rewrite
// (constructors validate shapes), so the containment path needs a seam.
var testPanicOutput = -1

// safe runs one rewriting attempt with panic containment: a panicking cone
// yields ErrConePanic instead of crashing the process.
func (w *Worker) safe(n *netlist.Netlist, root int, p pass) (br BitResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			br.Status = StatusPanic
			err = fmt.Errorf("%w: output %q: %v", ErrConePanic, n.NameOf(root), r)
		}
	}()
	return w.rewrite(n, root, p)
}

// governed is the per-cone retry ladder: one attempt in the default
// reverse-topological order, then — only for budget aborts — one retry with
// the alternative substitution schedule, then cone abandonment. Timeouts and
// cancellations are never retried: the clock that killed the first attempt
// is still running.
func (w *Worker) governed(n *netlist.Netlist, root int, h *hooks, opts Options, ctx context.Context) (BitResult, error, bool) {
	gov := &governor{ctx: ctx, done: ctx.Done(), budget: opts.BudgetTerms}
	if opts.ConeDeadline > 0 {
		gov.deadline = time.Now().Add(opts.ConeDeadline)
	}
	br, err := w.safe(n, root, pass{h: h, gov: gov})
	if err == nil || !errors.Is(err, ErrBudgetExceeded) {
		return br, err, false
	}
	// Budget abort: substitution order changes which products meet which,
	// and hence when cancellations fire; a level-driven schedule often keeps
	// the frontier smaller than the ID-driven one. The deadline keeps
	// running, so a retry cannot extend the cone's wall budget.
	h.countRetry()
	br2, err2 := w.safe(n, root, pass{h: h, gov: gov, order: altOrder(n, n.Cone(root))})
	if err2 != nil {
		// Report the attempt that got further; both failed.
		if br2.Substitutions < br.Substitutions {
			return br, err, true
		}
		return br2, err2, true
	}
	return br2, nil, true
}

// altOrder returns an alternative substitution schedule for the cone:
// descending logic level, and within a level cheaper gate models first,
// then ascending ID. Every reader of a gate sits at a strictly higher
// level, so this is still a valid reverse-topological elimination order —
// just a different interleaving across branches than the default
// descending-ID walk.
//
// The schedule is produced by a counting sort over (level, gate-cost)
// buckets fed from the Kahn-levelized depths that Levels computes in one
// forward sweep, memoized on the netlist. Keys are few and small — depth·4
// buckets — so this is O(cone + depth) instead of the comparison sort's
// O(cone·log cone), which matters because altOrder runs on exactly the
// cones that already blew a budget (i.e. the biggest ones). A single
// ascending pass over cone fills the buckets, preserving the ascending-ID
// tiebreak for free.
func altOrder(n *netlist.Netlist, cone []int) []int {
	levels, depth := n.Levels()
	// Bucket key: (depth-level)*4 + cost-1, so lower keys mean deeper
	// gates and cheaper models — exactly the order the retry wants.
	const costs = 4
	counts := make([]int, (depth+1)*costs)
	for _, id := range cone {
		counts[(depth-levels[id])*costs+gateCost(n.Gate(id).Type)-1]++
	}
	starts := counts // prefix sums, reused in place
	sum := 0
	for k, c := range counts {
		starts[k] = sum
		sum += c
	}
	order := make([]int, len(cone))
	for _, id := range cone { // ascending IDs → stable within buckets
		k := (depth-levels[id])*costs + gateCost(n.Gate(id).Type) - 1
		order[starts[k]] = id
		starts[k]++
	}
	return order
}

// gateCost estimates the term count of a gate's algebraic model (Eq. 1) —
// how much a substitution can expand the polynomial per occurrence.
func gateCost(t netlist.GateType) int {
	switch t {
	case netlist.Buf, netlist.And, netlist.Const0, netlist.Const1:
		return 1
	case netlist.Not, netlist.Xor, netlist.Nand, netlist.Xnor:
		return 2
	case netlist.Or, netlist.Nor:
		return 3
	default:
		return 4
	}
}
