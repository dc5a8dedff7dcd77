package extract

import (
	"fmt"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// The extraction pipeline. Algorithm 2 reads each coefficient of P(x) from
// one output bit alone (Theorem 3), so strict extraction, consensus,
// known-P verification, port inference and leased sharding are one run with
// different stage choices:
//
//	root span → m check → preflight → checkpoint Begin/Restore → rewrite →
//	checkpoint Sync → ports → decide → golden model → checkpoint Finalize →
//	localize
//
// The stages that vary are the rewriting scheduler (rewrite.Outputs, or the
// lease pool of package shard), the ports (named, or inferred from the
// expressions) and the decision (Algorithm 2, consensus, or a P(x) the
// caller already knows).

// Rewriter is the pipeline's rewriting stage, the seam a scheduler plugs
// into. It must honour rewrite.Outputs' contract: Prior cones are adopted,
// OnBitDone observes every freshly terminal cone, and without KeepPartial
// the first failed cone fails the run with that cone's typed error
// (MaxFailures bounds the tolerated failures under KeepPartial). A run cut
// short by the caller's context returns the context's error.
type Rewriter func(*netlist.Netlist, rewrite.Options) (*rewrite.Result, error)

// Stages selects the variable stages of a Run.
type Stages struct {
	// Rewrite schedules the per-cone rewriting; nil selects rewrite.Outputs.
	Rewrite Rewriter
	// InferPorts recovers the operand partition, bit order and output
	// order from the rewritten expressions (see InferPorts) instead of from
	// the port names.
	InferPorts bool
}

// Run is the extraction pipeline with caller-chosen stages;
// IrreduciblePolynomial, Diagnose and IrreduciblePolynomialInferred are Run
// with fixed ones. Options.Tolerate > 0 or Options.Diagnose selects
// consensus extraction, and then the Diagnosis is non-nil even on error;
// otherwise it is nil. The InferredPorts are non-nil once inference
// succeeded.
func Run(n *netlist.Netlist, opts Options, st Stages) (*Extraction, *Diagnosis, *InferredPorts, error) {
	return run(n, opts, st, nil)
}

// run is the pipeline. known, when non-nil, is a P(x) the caller supplies
// (VerifyAgainst): the decision adopts it and the golden model always runs.
func run(n *netlist.Netlist, opts Options, st Stages, known *gf2poly.Poly) (ext *Extraction, diag *Diagnosis, ip *InferredPorts, err error) {
	m := len(n.Outputs())
	consensus := known == nil && (opts.Tolerate > 0 || opts.Diagnose)
	attrs := map[string]int64{"m": int64(m)}
	if consensus {
		diag = &Diagnosis{Tolerate: opts.Tolerate}
		attrs["tolerate"] = int64(opts.Tolerate)
	}
	// The root span: every phase below (preflight, rewrite with its
	// per-cone children, ports, decision, golden model) nests under it, so
	// a trace tree reconstructs the whole run from one job.
	rec := opts.Recorder
	root := rec.StartSpan("extraction", attrs)
	defer func() {
		if err != nil {
			root.SetStatus("error")
		}
		root.End()
	}()

	switch {
	case m < 2:
		return nil, diag, nil, fmt.Errorf("%w: %d outputs", ErrNotMultiplier, m)
	case known != nil && known.Deg() != m:
		return nil, nil, nil, fmt.Errorf("extract: polynomial degree %d != output count %d", known.Deg(), m)
	case known != nil && !known.Irreducible():
		return nil, nil, nil, fmt.Errorf("%w: %v factors as %s", ErrNotIrreducible, *known, factorString(*known))
	}
	lint, err := preflight(n, &opts)
	if err != nil {
		return &Extraction{M: m, Lint: lint}, diag, nil, err
	}

	rw, err := rewriteStage(n, opts, st.Rewrite, consensus)
	diag.observe(rw)
	if err != nil {
		// Run-level failure: a cone failed on the strict path, the
		// tolerance was exceeded, the caller's context ended, or the
		// checkpoint failed. The diagnosis keeps the partial per-bit
		// picture of which cones died and why.
		return nil, diag, nil, err
	}

	var a, b []int
	if st.InferPorts {
		span := rec.StartSpan("infer-ports", nil)
		ip, err = InferPorts(n, rw)
		span.End()
		if err != nil {
			return nil, diag, nil, err
		}
		rw = ip.ReorderBits(rw)
		diag.observe(rw)
		a, b = ip.A, ip.B
	} else {
		if opts.PrefixA == "" {
			opts.PrefixA = "a"
		}
		if opts.PrefixB == "" {
			opts.PrefixB = "b"
		}
		if a, b, err = identifyPorts(n, m, opts.PrefixA, opts.PrefixB); err != nil {
			return nil, diag, nil, err
		}
	}
	ext = &Extraction{M: m, AInputs: a, BInputs: b, Rewrite: rw, Diag: diag, Lint: lint}

	// Decide and check against the golden model. Consensus arbitration is
	// its own golden-model check; Algorithm 2 and a known P(x) are checked
	// by the full canonical comparison.
	if consensus {
		if err := decideConsensus(ext, opts.Tolerate, rec); err != nil {
			return ext, diag, ip, err
		}
	} else {
		if known != nil {
			ext.P = *known
		} else {
			// The out-field product set {a_i·b_j : i+j=m} is invariant
			// under swapping the two operands (monomials are unordered), so
			// extraction is insensitive to which operand is which — only
			// the bit order within each operand matters.
			span := rec.StartSpan("extract", map[string]int64{"m": int64(m)})
			ext.P, err = FromExpressions(rw, a, b)
			span.End()
			if err != nil {
				return nil, diag, ip, err
			}
		}
		if known != nil || !opts.SkipVerify {
			if err := verifyObserved(n, ext, rec); err != nil {
				return ext, diag, ip, err
			}
			ext.Verified = true
		}
	}

	// The snapshot is marked complete only once the verdict is in: a run
	// that failed the golden model must not leave a "complete" P(x) behind.
	if opts.Checkpoint != nil {
		if err := opts.Checkpoint.Finalize(ext.P); err != nil {
			return ext, diag, ip, err
		}
	}
	if consensus && diag.Faults > 0 {
		span := rec.StartSpan("localize", map[string]int64{"deviating": int64(diag.Faults)})
		diag.Suspects = localize(n, ext, diag)
		span.End()
	}
	return ext, diag, ip, nil
}

// rewriteStage runs the scheduler under the extraction's governance knobs,
// with the checkpoint seam wired in. keepPartial is set on the consensus
// path, where failed cones are data rather than fatal. Without a checkpoint
// manager it is exactly the scheduler. With one:
//
//   - Resume loads the directory's checkpoint (validating the netlist
//     content hash) and feeds its completed cones to
//     rewrite.Options.Prior, so only pending or failed cones are
//     re-rewritten;
//   - without Resume a fresh cone log is begun, replacing any stale one;
//   - every freshly computed cone — completed or failed — is appended to
//     the log through the OnBitDone hook as the run progresses;
//   - whatever way the run ends (success, governed abort, cancellation),
//     Sync flushes the last throttle window, so the log on disk is never
//     more than the in-flight cones behind the run.
func rewriteStage(n *netlist.Netlist, opts Options, schedule Rewriter, keepPartial bool) (*rewrite.Result, error) {
	ro := rewrite.Options{
		Threads: opts.Threads, Recorder: opts.Recorder,
		Ctx: opts.Ctx, ConeDeadline: opts.ConeDeadline, BudgetTerms: opts.BudgetTerms,
	}
	if keepPartial {
		ro.KeepPartial = true
		ro.MaxFailures = opts.Tolerate
	}
	if schedule == nil {
		schedule = rewrite.Outputs
	}
	ckpt := opts.Checkpoint
	if ckpt == nil {
		return schedule(n, ro)
	}
	if opts.Resume {
		prior, err := ckpt.Restore(n)
		if err != nil {
			return nil, err
		}
		ro.Prior = prior
	} else if err := ckpt.Begin(n); err != nil {
		return nil, err
	}
	ro.OnBitDone = ckpt.Record
	rw, err := schedule(n, ro)
	if rw != nil {
		ckpt.AddRetries(rw.Retries)
	}
	if serr := ckpt.Sync(); serr != nil && err == nil {
		err = serr
	}
	return rw, err
}
