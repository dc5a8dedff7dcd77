// Single-cone entry point for sharded extraction: the same governed
// rewriting (budget, deadline, panic containment, retry ladder) that
// Outputs applies per worker, exposed for schedulers that hand out cones
// one lease at a time instead of owning the whole worker pool.
package rewrite

import (
	"context"
	"errors"
	"fmt"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

func statsOf(br BitResult) obs.BitStats {
	return obs.BitStats{
		Bit: br.Bit, Name: br.Name, ConeGates: br.ConeGates,
		Substitutions: br.Substitutions, PeakTerms: br.PeakTerms,
		FinalTerms: br.FinalTerms, Cancelled: br.Cancelled,
		Duration: br.Runtime,
	}
}

// RewriteCone rewrites the single output bit `bit` of n under the full
// resource-governance policy of opts (Ctx, ConeDeadline, BudgetTerms,
// NoRetry). The returned BitResult always carries the bit index, output
// name and a terminal Status — StatusOK with a valid Expr on success, or
// the failure class with the cost counters accumulated up to the abort.
//
// Unlike Outputs, no worker pool, straggler ordering or sibling
// cancellation is involved: this is exactly one cone, for callers (the
// shard scheduler, remote gfred peers) that do their own scheduling.
func RewriteCone(n *netlist.Netlist, bit int, opts Options) (BitResult, error) {
	outs := n.Outputs()
	if bit < 0 || bit >= len(outs) {
		return BitResult{}, fmt.Errorf("rewrite: output bit %d out of range (netlist has %d outputs)", bit, len(outs))
	}
	name := n.OutputNames()[bit]
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	h := newHooks(opts.Recorder)
	rec := opts.Recorder
	rec.BitStart(bit, name)
	h.busyAdd(1)
	br, err, _ := rewriteGoverned(n, outs[bit], h, opts, ctx)
	h.busyAdd(-1)
	br.Bit = bit
	br.Name = name
	br.ConeGates = n.ConeSizes()[bit]
	if err == nil {
		br.Status = StatusOK
		rec.BitFinish(statsOf(br))
		return br, nil
	}
	if be := (*BudgetError)(nil); errors.As(err, &be) {
		be.Bit, be.Name = bit, name
	}
	if br.Status == "" || br.Status == StatusOK {
		br.Status = StatusError
	}
	br.Err = err.Error()
	h.countAbort(br)
	return br, err
}
