// Package rewrite implements backward rewriting of gate-level netlists into
// canonical per-output algebraic normal forms — Algorithm 1 of the paper,
// parallelized across output bits per Theorem 2.
//
// For each primary output z, the engine starts from the polynomial F₀ = z
// and walks the output's transitive-fanin cone in reverse topological order,
// substituting every gate-output variable by the gate's algebraic model
// (Eq. 1) with immediate mod-2 simplification, until only primary-input
// variables remain. Because GF(2^m) multipliers have no carry chain,
// cancellations never cross cones (Theorem 2), so output bits are processed
// by an independent worker each — the "extraction in n threads" of the
// paper's title claim, with a configurable pool size like the paper's
// 16-thread runs.
//
// Variables are netlist gate IDs: anf.Var(id). Final expressions therefore
// refer to primary-input gate IDs.
package rewrite

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// Options configures a rewriting run.
type Options struct {
	// Threads is the worker-pool size. 0 selects runtime.GOMAXPROCS(0).
	// The paper's experiments use 16.
	Threads int
	// Recorder receives telemetry: per-bit start/finish events, the
	// rewrite and cone-index phase spans, and the substitutions /
	// cancellations / live_terms / workers_busy metrics. nil disables
	// instrumentation at negligible cost.
	Recorder *obs.Recorder

	// Ctx cancels the whole run cooperatively: in-flight cones stop at the
	// next substitution and queued cones are skipped. nil means Background.
	Ctx context.Context
	// ConeDeadline bounds the wall time of each individual cone; a cone
	// over deadline aborts with ErrConeTimeout. 0 disables the deadline.
	ConeDeadline time.Duration
	// BudgetTerms caps the live terms of each cone's intermediate
	// polynomial; exceeding it aborts the cone with a *BudgetError
	// (errors.Is ErrBudgetExceeded). 0 disables the budget.
	BudgetTerms int
	// KeepPartial makes Outputs survive individual cone failures: failed
	// bits carry a Status and empty Expr, healthy bits complete normally,
	// and the Result comes back with a nil error as long as the failure
	// count stays within MaxFailures. Without KeepPartial the first
	// failure cancels all sibling cones promptly and fails the run.
	KeepPartial bool
	// MaxFailures bounds the tolerated failed-cone count under
	// KeepPartial; one failure beyond it fails the run with
	// ErrTooManyFailures (wrapping the last cone error). 0 = unlimited.
	MaxFailures int

	// Prior restores completed cones from an earlier (checkpointed) run:
	// entries with Status ok whose Bit/Name match an output are adopted
	// verbatim and never re-rewritten; everything else is rewritten as
	// usual. Result.Reused counts the adopted cones. Entries that do not
	// match the netlist (stale bit index or renamed output) are ignored —
	// callers gate on a content hash, this is defense in depth.
	Prior []BitResult
	// OnBitDone, when non-nil, observes every freshly computed terminal
	// BitResult — completed or failed — right after the worker stores it.
	// It is invoked concurrently from the worker pool (the checkpoint
	// manager serializes internally) and is NOT called for Prior-reused
	// cones, which the caller already has.
	OnBitDone func(BitResult)
}

// BitStats records the per-output-bit cost counters that Figure 4 and the
// memory columns of Tables I–IV are built from.
type BitStats struct {
	Bit           int           // output position
	Name          string        // output port name
	ConeGates     int           // gates in the output's transitive fanin
	Substitutions int           // rewriting iterations actually performed
	PeakTerms     int           // largest intermediate polynomial size
	FinalTerms    int           // terms in the extracted expression
	Cancelled     int           // terms eliminated mod 2 across all substitutions (exact)
	Runtime       time.Duration // wall time to rewrite this bit
}

// BitResult is the extracted expression of one output bit plus its cost.
type BitResult struct {
	BitStats
	Expr anf.Poly // canonical ANF over primary-input variables
	// Status classifies how the cone ended; "" and StatusOK both mean a
	// completed cone with a valid Expr.
	Status Status
	// Err holds the cone's failure message when Status.Failed().
	Err string
}

// Result is the outcome of rewriting all outputs of a netlist.
type Result struct {
	Bits    []BitResult   // indexed by output position
	Runtime time.Duration // wall time for the whole run (all workers)
	Threads int           // worker count actually used
	// Failed lists the output positions whose cones did not complete
	// (budget, timeout, panic, cancellation or structural error).
	Failed []int
	// Retries counts budget-aborted cones that were re-attempted under the
	// alternative substitution order.
	Retries int
	// Reused counts cones adopted from Options.Prior instead of being
	// rewritten — the quantity a resumed run saves over a cold one.
	Reused int
}

// TotalSubstitutions sums the rewriting iterations over all bits.
func (r *Result) TotalSubstitutions() int {
	n := 0
	for _, b := range r.Bits {
		n += b.Substitutions
	}
	return n
}

// TotalCancelled sums the mod-2 term eliminations over all bits.
func (r *Result) TotalCancelled() int {
	n := 0
	for _, b := range r.Bits {
		n += b.Cancelled
	}
	return n
}

// PeakTerms returns the largest intermediate polynomial seen in any bit.
func (r *Result) PeakTerms() int {
	p := 0
	for _, b := range r.Bits {
		if b.PeakTerms > p {
			p = b.PeakTerms
		}
	}
	return p
}

// EstimatedMemBytes approximates the working-set high-water mark: the peak
// term count of every concurrently live bit times an empirical per-term
// cost. It is the analogue of the paper's "Mem" column (their numbers are
// resident-set sizes of the C++ tool; ours are model estimates — shapes are
// comparable, absolute values are not).
func (r *Result) EstimatedMemBytes() int64 {
	// Measured on the flat-table core by holding the compacted expressions
	// of a GF(2^64) Montgomery run and reading the GC-settled HeapAlloc
	// delta: ~73 B per term (arena variables, offset, hash tag, signature
	// mask and index slots; occurrence entries; bitset and listed-flag
	// share), 79 B at m=163, rounded up to cover per-poly fixed overhead at
	// small term counts.
	const bytesPerTerm = 80
	var total int64
	for _, b := range r.Bits {
		total += int64(b.PeakTerms) * bytesPerTerm
	}
	return total
}

// hooks carries pre-fetched metric handles into the rewriting hot loop, so
// the instrumented path costs one predictable nil check per event site and
// the registry lock is never touched mid-rewrite. A nil *hooks disables
// everything.
type hooks struct {
	rec    *obs.Recorder
	subst  *obs.Counter // substitutions performed
	cancel *obs.Counter // terms eliminated mod 2
	live   *obs.Gauge   // resident terms across all in-flight bits
	busy   *obs.Gauge   // workers currently rewriting a bit
	retry  *obs.Counter // cone_retries: budget aborts re-attempted
	aborts *obs.Counter // cone_aborts: cones that ended without an Expr
}

func newHooks(rec *obs.Recorder) *hooks {
	if rec == nil {
		return nil
	}
	m := rec.Metrics()
	return &hooks{
		rec:    rec,
		subst:  m.Counter("substitutions"),
		cancel: m.Counter("cancellations"),
		live:   m.Gauge("live_terms"),
		busy:   m.Gauge("workers_busy"),
		retry:  m.Counter("cone_retries"),
		aborts: m.Counter("cone_aborts"),
	}
}

func (h *hooks) countRetry() {
	if h != nil {
		h.retry.Inc()
	}
}

// countAbort bumps the abort counter and emits a structured cone_abort event
// carrying the bit, its status and the progress made before the abort.
func (h *hooks) countAbort(br BitResult) {
	if h == nil {
		return
	}
	h.aborts.Inc()
	h.rec.Emit("cone_abort", string(br.Status), map[string]int64{
		"bit":           int64(br.Bit),
		"cone_gates":    int64(br.ConeGates),
		"substitutions": int64(br.Substitutions),
		"peak_terms":    int64(br.PeakTerms),
	})
}

// Outputs rewrites every primary output of n into its canonical ANF.
//
// Failure semantics: without Options.KeepPartial the first failing cone
// cancels its siblings promptly and Outputs returns that cone's error
// together with the partial Result (completed bits keep their expressions,
// aborted bits carry a Status). With KeepPartial, up to MaxFailures cones
// may fail while the run still returns nil; the failures are listed in
// Result.Failed.
func Outputs(n *netlist.Netlist, opts Options) (*Result, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	outs := n.Outputs()
	names := n.OutputNames()
	res := &Result{Bits: make([]BitResult, len(outs)), Threads: threads}
	if len(outs) == 0 {
		return nil, fmt.Errorf("rewrite: netlist %q has no outputs", n.Name)
	}

	base := opts.Ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	rec := opts.Recorder
	h := newHooks(rec)
	span := rec.StartSpan("rewrite", map[string]int64{
		"bits": int64(len(outs)), "threads": int64(threads),
	})
	// Per-bit cone sizes come from the netlist's cone index: one build per
	// netlist (free when preflight already paid for it), never a per-bit
	// sweep.
	idx := rec.StartSpan("cone-index", nil)
	sizes := n.ConeSizes()
	idx.End()

	// Adopt checkpointed cones before any worker starts: a reused bit is
	// final state, not work. Name matching guards against stale snapshots
	// (callers additionally gate on a netlist content hash).
	reused := make([]bool, len(outs))
	for _, pb := range opts.Prior {
		if pb.Status != StatusOK || pb.Bit < 0 || pb.Bit >= len(outs) ||
			pb.Name != names[pb.Bit] || reused[pb.Bit] {
			continue
		}
		res.Bits[pb.Bit] = pb
		reused[pb.Bit] = true
		res.Reused++
		rec.Emit("bit_reused", pb.Name, map[string]int64{
			"bit": int64(pb.Bit), "final": int64(pb.FinalTerms),
		})
	}
	if res.Reused > 0 {
		rec.Metrics().Counter("bits_reused").Add(int64(res.Reused))
	}

	var retries atomic.Int64
	policy := NewFailurePolicy(opts)
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewWorker(span)
			for bit := range jobs {
				if err := ctx.Err(); err != nil {
					res.Bits[bit] = BitResult{
						BitStats: BitStats{Bit: bit, Name: names[bit]},
						Status:   StatusCancelled, Err: err.Error(),
					}
					continue
				}
				br, err, retried := w.runCone(ctx, n, bit, outs[bit], names[bit], sizes[bit], opts, h)
				if retried {
					retries.Add(1)
				}
				res.Bits[bit] = br
				if opts.OnBitDone != nil {
					opts.OnBitDone(br)
				}
				if policy.Record(br, err) != nil {
					// The first fatal cone stops its siblings at their next
					// substitution instead of burning cores on a lost run.
					cancel()
				}
			}
		}()
	}
	// Straggler-aware handoff: feed predicted-expensive cones first (see
	// ConeOrder).
	for _, bit := range ConeOrder(n) {
		if !reused[bit] {
			jobs <- bit
		}
	}
	close(jobs)
	wg.Wait()

	res.Retries = int(retries.Load())
	for bit, br := range res.Bits {
		if br.Status.Failed() {
			res.Failed = append(res.Failed, bit)
		}
	}
	res.Runtime = time.Since(start)
	span.End()
	if err := policy.Err(); err != nil {
		return res, err
	}
	if err := base.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// ConeOrder returns every output bit of n, deepest cone first: descending
// logic level of the bit's root, ties in bit order. Both schedulers hand
// out cones in this order (Outputs to its workers, the shard pool in its
// leases). With per-bit costs spanning two orders of magnitude (the
// Montgomery z20/z28 class vs their ~ms siblings), feeding in bit order can
// land a fat cone on the last free worker and serialize the tail of the
// run behind it; starting the deep cones first bounds the tail by the
// cheap ones instead. Root logic depth is the predictor — it is computed
// in one O(gates) sweep, memoized on the netlist, and correlates with both
// cone size and substitution cost on every architecture we generate (see
// EXPERIMENTS.md).
func ConeOrder(n *netlist.Netlist) []int {
	levels := n.OutputLevels()
	order := make([]int, len(levels))
	for bit := range order {
		order[bit] = bit
	}
	sort.SliceStable(order, func(i, j int) bool {
		return levels[order[i]] > levels[order[j]]
	})
	return order
}

func (h *hooks) busyAdd(delta int64) {
	if h != nil {
		h.busy.Add(delta)
	}
}

// pass configures one rewriting attempt over a cone. The zero value is the
// plain default: ungoverned, uninstrumented, silent, descending-ID order.
type pass struct {
	h     *hooks
	gov   *governor // per-cone resource policy; nil disables it
	order []int     // explicit substitution schedule (retry); nil = the fused walk
	trace io.Writer // Figure-3 step log (TraceOutput); nil = silent
}

// rewrite runs Algorithm 1 on root's cone. It leaves ConeGates to the
// caller, which reads it from the cone index.
func (w *Worker) rewrite(n *netlist.Netlist, root int, p pass) (BitResult, error) {
	start := time.Now()
	h, gov := p.h, p.gov
	br := BitResult{}
	br.Bit = -1
	if h != nil {
		h.live.Add(1) // F₀ = z
	}

	f := anf.Variable(anf.Var(root))
	br.PeakTerms = 1
	// The worker's gate-model buffer: GateTerms refills it per substitution
	// and SubstituteTerms reads it in place, so no polynomial is built per
	// gate.
	e := &w.e
	if h != nil {
		// On every exit path the bit's resident terms leave the working
		// set — aborted cones must not leak into the live_terms gauge.
		defer func() { h.live.Add(-int64(f.Len())) }()
	}

	// substitute eliminates gate id's variable from f if it still occurs
	// there, and reports whether it did.
	substitute := func(id int) (bool, error) {
		typ, _ := n.Cell(id)
		if typ == netlist.Input {
			return false, nil
		}
		if id == testPanicOutput {
			panic(fmt.Sprintf("test-injected panic at gate %d", id))
		}
		v := anf.Var(id)
		k := f.VarOccurrences(v)
		if k == 0 {
			// The gate's contribution cancelled out earlier; nothing to do.
			return false, nil
		}
		if st, err := gov.poll(); err != nil {
			br.Status = st
			return false, err
		}
		if err := n.GateTerms(id, e); err != nil {
			return false, fmt.Errorf("rewrite: gate %d (%s): %w", id, n.NameOf(id), err)
		}
		before := f.Len()
		f.SubstituteTerms(v, e)
		after := f.Len()
		br.Substitutions++
		// Exact mod-2 accounting: the k occurrences of v expand to k·|e|
		// terms, so before-k+k·|e| were produced and the shortfall vanished
		// in cancelling pairs — always an even number.
		cancelled := before - k + k*e.Len() - after
		br.Cancelled += cancelled
		if after > br.PeakTerms {
			br.PeakTerms = after
		}
		if p.trace != nil {
			elim := ""
			if cancelled > 0 {
				elim = fmt.Sprintf("   [%d terms cancelled mod 2]", cancelled)
			}
			fmt.Fprintf(p.trace, "%-6s %s = %-24s F%d = %s%s\n",
				n.NameOf(id)+":", typ, formatTerms(e, n), br.Substitutions, FormatPoly(f, n), elim)
		}
		if h != nil {
			h.subst.Inc()
			h.cancel.Add(int64(cancelled))
			h.live.Add(int64(after - before))
		}
		if gov.charge(after) {
			br.Status = StatusBudget
			return true, &BudgetError{Bit: -1, Name: n.NameOf(root),
				Terms: after, Budget: gov.budget, Substitutions: br.Substitutions}
		}
		return true, nil
	}
	var err error
	if p.order == nil {
		// Reverse topological order, fused with the cone sweep: every fanin
		// ID is smaller than its reader, so the descending walk eliminates
		// each gate variable before its fanins are visited. Only substituted
		// gates expand, because a variable can only enter f through the
		// substitution of one of its readers: the gates skipped this way are
		// exactly those the full cone walk would find absent, so the
		// substitution sequence — and every count — is the full walk's.
		err = n.WalkCone(root, substitute)
	} else {
		for _, id := range p.order {
			if _, err = substitute(id); err != nil {
				break
			}
		}
	}
	if err != nil {
		br.Runtime = time.Since(start)
		return br, err
	}

	// Sanity: only primary-input variables may remain (Theorem 1). The
	// support is walked unsorted; the smallest survivor is reported.
	bad, survived := anf.Var(0), false
	f.EachSupportVar(func(v anf.Var) bool {
		if typ, _ := n.Cell(int(v)); typ != netlist.Input && (!survived || v < bad) {
			bad, survived = v, true
		}
		return true
	})
	if survived {
		br.Status = StatusError
		return br, fmt.Errorf("rewrite: non-input variable v%d (%s) survived rewriting", bad, n.NameOf(int(bad)))
	}
	// Compact drops the cone's intern-table churn (every monomial that ever
	// existed during rewriting plus the product memo) so the returned
	// expression holds only its final terms — the difference between MBs and
	// KBs per bit on the large-m runs whose results live until extraction.
	br.Expr = f.Compact()
	br.FinalTerms = br.Expr.Len()
	br.Runtime = time.Since(start)
	return br, nil
}
