// One governed cone: the per-cone runner under both schedulers. Every
// rewriting goroutine owns a Worker: Outputs gives one to each goroutine of
// its pool, and the shard scheduler's workers (local goroutines and remote
// gfred peers alike) hold one each and call RewriteCone per leased cone.
package rewrite

import (
	"context"
	"errors"
	"fmt"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// Worker is one rewriting goroutine's state: the gate-model buffer every
// cone it rewrites refills, and the span its per-cone spans nest under.
// Each cone still interns its monomials into tables of its own, which
// Compact drops once the expression is copied out: reusing one working
// polynomial per worker halves rewriting time, but preflight, held to 30%
// of extraction by TestPreflightWallShare, cannot yet keep up with so fast
// an extraction. A Worker is not safe for concurrent use.
type Worker struct {
	span *obs.Span // parent of the per-cone spans; nil emits none
	e    anf.Terms // gate-model buffer, refilled per substitution
}

// NewWorker returns a worker whose per-cone spans are children of span;
// a nil span emits none.
func NewWorker(span *obs.Span) *Worker { return &Worker{span: span} }

// RewriteCone rewrites the single output bit `bit` of n under the full
// resource-governance policy of opts (Ctx, ConeDeadline, BudgetTerms). The
// returned BitResult always carries the bit index, output name and a
// terminal Status — StatusOK with a valid Expr on success, or the failure
// class with the cost counters accumulated up to the abort.
//
// Unlike Outputs, no worker pool, straggler ordering or sibling
// cancellation is involved: this is exactly one cone, for callers (the
// shard scheduler, remote gfred peers) that do their own scheduling.
func (w *Worker) RewriteCone(n *netlist.Netlist, bit int, opts Options) (BitResult, error) {
	outs := n.Outputs()
	if bit < 0 || bit >= len(outs) {
		return BitResult{}, fmt.Errorf("rewrite: output bit %d out of range (netlist has %d outputs)", bit, len(outs))
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	br, err, _ := w.runCone(ctx, n, bit, outs[bit], n.OutputNames()[bit], n.ConeSizes()[bit], opts, newHooks(opts.Recorder))
	return br, err
}

// runCone rewrites output bit (gate root, port name, gates gates in its
// cone) under ctx and the budget and deadline of opts, with bit_start and
// bit_finish telemetry, the cone's child span, the workers_busy gauge and
// abort accounting. The result is terminal: StatusOK with an Expr, or a
// failure Status with Err set and the returned error typed. retried
// reports whether the retry ladder ran.
func (w *Worker) runCone(ctx context.Context, n *netlist.Netlist, bit, root int, name string, gates int, opts Options, h *hooks) (br BitResult, err error, retried bool) {
	rec := opts.Recorder
	// Per-cone child span: concurrent siblings in the trace tree, one per
	// output bit. Child is nil-safe and the attrs ride on EndWith, so the
	// uninstrumented path stays allocation-free.
	span := w.span.Child(name, nil)
	rec.BitStart(bit, name)
	h.busyAdd(1)
	br, err, retried = w.governed(n, root, h, opts, ctx)
	h.busyAdd(-1)
	br.Bit, br.Name, br.ConeGates = bit, name, gates
	if err == nil {
		br.Status = StatusOK
		rec.BitFinish(obs.BitStats{
			Bit: br.Bit, Name: br.Name, ConeGates: br.ConeGates,
			Substitutions: br.Substitutions, PeakTerms: br.PeakTerms,
			FinalTerms: br.FinalTerms, Cancelled: br.Cancelled,
			Duration: br.Runtime,
		})
	} else {
		if be := (*BudgetError)(nil); errors.As(err, &be) {
			be.Bit, be.Name = bit, name
		}
		if br.Status == "" || br.Status == StatusOK {
			br.Status = StatusError
		}
		br.Err = err.Error()
		h.countAbort(br)
	}
	if span != nil {
		retriedV := int64(0)
		if retried {
			retriedV = 1
		}
		span.SetStatus(string(br.Status))
		span.EndWith(map[string]int64{
			"bit": int64(bit), "cone_gates": int64(br.ConeGates),
			"subst": int64(br.Substitutions), "peak_terms": int64(br.PeakTerms),
			"cancelled": int64(br.Cancelled), "retries": retriedV,
		})
	}
	return br, err, retried
}
