// One governed cone: the per-cone runner under both schedulers. Outputs
// feeds it from its worker pool; RewriteCone exposes it to schedulers that
// hand out cones one lease at a time (the shard pool, remote gfred peers).
package rewrite

import (
	"context"
	"errors"
	"fmt"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// RewriteCone rewrites the single output bit `bit` of n under the full
// resource-governance policy of opts (Ctx, ConeDeadline, BudgetTerms). The
// returned BitResult always carries the bit index, output name and a
// terminal Status — StatusOK with a valid Expr on success, or the failure
// class with the cost counters accumulated up to the abort.
//
// Unlike Outputs, no worker pool, straggler ordering or sibling
// cancellation is involved: this is exactly one cone, for callers (the
// shard scheduler, remote gfred peers) that do their own scheduling.
func RewriteCone(n *netlist.Netlist, bit int, opts Options) (BitResult, error) {
	outs := n.Outputs()
	if bit < 0 || bit >= len(outs) {
		return BitResult{}, fmt.Errorf("rewrite: output bit %d out of range (netlist has %d outputs)", bit, len(outs))
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	br, err, _ := runCone(ctx, n, bit, outs[bit], n.OutputNames()[bit], n.ConeSizes()[bit], opts, newHooks(opts.Recorder))
	return br, err
}

// runCone rewrites output bit (gate root, port name, gates gates in its
// cone) under ctx and the budget and deadline of opts, with bit_start and
// bit_finish telemetry, the workers_busy gauge and abort accounting. The
// result is terminal: StatusOK with an Expr, or a failure Status with Err
// set and the returned error typed. retried reports whether the retry
// ladder ran.
func runCone(ctx context.Context, n *netlist.Netlist, bit, root int, name string, gates int, opts Options, h *hooks) (br BitResult, err error, retried bool) {
	rec := opts.Recorder
	rec.BitStart(bit, name)
	h.busyAdd(1)
	br, err, retried = rewriteGoverned(n, root, h, opts, ctx)
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
		return br, nil, retried
	}
	if be := (*BudgetError)(nil); errors.As(err, &be) {
		be.Bit, be.Name = bit, name
	}
	if br.Status == "" || br.Status == StatusOK {
		br.Status = StatusError
	}
	br.Err = err.Error()
	h.countAbort(br)
	return br, err, retried
}
