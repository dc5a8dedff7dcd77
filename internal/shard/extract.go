// Extract is the lease-scheduled form of extract.IrreduciblePolynomial: the
// same pipeline (extract.Run), with the rewriting stage turned into a Pool
// of cone leases executed by local workers and any remote peers reached
// through a Hub.
package shard

import (
	"context"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// ExtractOptions tunes the scheduling side of a sharded extraction; the
// extraction semantics (ports, tolerance, verification, checkpointing)
// stay in extract.Options.
type ExtractOptions struct {
	// Workers is the local lease-executing goroutine count. 0 selects 1;
	// negative runs no local workers (pure coordinator — remote peers via
	// Hub do all the work).
	Workers int
	// MaxCones caps the cones per lease (0 = DefaultMaxCones).
	MaxCones int
	// LeaseTTL forwards to Config.
	LeaseTTL time.Duration
	// Store is the cross-job result cache; nil allocates a private one.
	Store *Store
	// Hub, when non-nil, exposes the pool to remote peers under HubKey for
	// the duration of the run.
	Hub *Hub
	// HubKey names the pool in the hub ("" selects the content hash).
	HubKey string
}

// Extract reverse engineers P(x) with lease-based sharded rewriting. The
// returned Stats carry the robustness counters (expiries, steals, fenced
// zombies, reuse) of the run; the Extraction/Diagnosis pair matches what
// the monolithic extract paths produce for the same options.
func Extract(n *netlist.Netlist, eopts extract.Options, sopts ExtractOptions) (*extract.Extraction, *extract.Diagnosis, Stats, error) {
	var stats Stats
	ext, diag, _, err := extract.Run(n, eopts, extract.Stages{Rewrite: Rewriter(sopts, &stats)})
	return ext, diag, stats, err
}

// Rewriter returns the lease-scheduled rewriting stage of extract.Run. The
// rewrite options map onto the pool: Prior seeds completed cones, OnBitDone
// observes every newly terminal cone, and BudgetTerms/ConeDeadline ride on
// every grant. Permanently failed cones go through rewrite.Outputs' own
// rewrite.FailurePolicy, so the error contract is the same: without
// KeepPartial the first one stops the run with its typed error, under
// KeepPartial one failure beyond MaxFailures does, and a run cut short by
// the caller's context returns the context's error. The pool's
// robustness counters land in *stats when stats is non-nil.
func Rewriter(sopts ExtractOptions, stats *Stats) extract.Rewriter {
	return func(n *netlist.Netlist, ro rewrite.Options) (*rewrite.Result, error) {
		m := len(n.Outputs())
		hash, err := checkpoint.HashNetlist(n)
		if err != nil {
			return nil, err
		}
		base := ro.Ctx
		if base == nil {
			base = context.Background()
		}
		// The internal cancel lets a fatal cone stop the run at once
		// instead of leasing out cones whose results no longer matter.
		ctx, cancel := context.WithCancel(base)
		defer cancel()
		policy := rewrite.NewFailurePolicy(ro)
		onResult := func(br rewrite.BitResult) {
			if ro.OnBitDone != nil {
				ro.OnBitDone(br)
			}
			if policy.Record(br, nil) != nil {
				cancel()
			}
		}

		rec := ro.Recorder
		pool, err := NewPool(Config{
			Hash: hash, Order: rewrite.ConeOrder(n),
			LeaseTTL: sopts.LeaseTTL, MaxConesPerLease: sopts.MaxCones,
			BudgetTerms: ro.BudgetTerms, ConeDeadline: ro.ConeDeadline,
			Store: sopts.Store, Prior: ro.Prior, OnResult: onResult,
			Recorder: rec,
		})
		if err != nil {
			return nil, err
		}
		defer pool.Close()

		if sopts.Hub != nil {
			key := sopts.HubKey
			if key == "" {
				key = hash
			}
			if err := sopts.Hub.Register(key, pool, n); err != nil {
				return nil, err
			}
			defer sopts.Hub.Unregister(key)
		}

		start := time.Now()
		span := rec.StartSpan("rewrite", map[string]int64{"bits": int64(m), "sharded": 1})
		if sopts.Workers >= 0 {
			// RunWorkers returns on ErrDone; remote peers may race it to the
			// last cone, which simply makes the local loop exit early.
			RunWorkers(ctx, pool, n, WorkerConfig{
				Workers: sopts.Workers, MaxCones: sopts.MaxCones,
				Rewrite: rewrite.Options{Recorder: rec, Threads: ro.Threads},
				Span:    span,
			})
		}
		waitErr := pool.Wait(ctx)
		span.End()

		rw := pool.Result()
		rw.Runtime = time.Since(start)
		rw.Threads = sopts.Workers
		if stats != nil {
			*stats = pool.Stats()
		}
		if err := policy.Err(); err != nil {
			return rw, err
		}
		return rw, waitErr
	}
}
