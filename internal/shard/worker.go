// Worker side of the lease protocol: pull a grant, heartbeat it, compute
// the cones with the governed single-cone rewriter, submit the results.
// The same loop drives local goroutines (Source = *Pool), remote peers
// (Source = *Client, which packs results for the wire) and the chaos
// harness, which runs it against a fault-injecting Source around a Pool:
// killed workers, starved heartbeats and delayed, reordered and duplicated
// submissions all hit this code.
package shard

import (
	"context"
	"errors"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Source is the scheduler as seen by one worker. *Pool implements it
// directly; *Client speaks it over HTTP.
type Source interface {
	Lease(worker string, max int) (*Grant, error)
	Renew(leaseID string, epoch uint64) (time.Time, error)
	Submit(leaseID string, epoch uint64, results []rewrite.BitResult) (SubmitReply, error)
}

// WorkerConfig tunes RunWorkers.
type WorkerConfig struct {
	// ID prefixes the per-goroutine worker names. "" selects "local".
	ID string
	// Workers is the number of concurrent lease-pulling goroutines.
	// 0 selects 1.
	Workers int
	// MaxCones caps the cones requested per lease (0 = scheduler default).
	MaxCones int
	// Rewrite carries the governance knobs applied to each cone. Ctx is
	// overridden per lease so a fenced lease aborts its remaining cones.
	Rewrite rewrite.Options
	// IdleSleep is the base delay after ErrNoWork (doubled up to 16x).
	// 0 selects 10ms.
	IdleSleep time.Duration
}

// RunWorkers drives cfg.Workers concurrent workers against src until the
// scheduler reports ErrDone or ctx ends. Worker-side failures (fenced
// leases, transport errors from a Client source) are absorbed: the
// scheduler's expiry machinery re-queues whatever was lost, which is the
// whole point of leasing.
func RunWorkers(ctx context.Context, src Source, n *netlist.Netlist, cfg WorkerConfig) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ID == "" {
		cfg.ID = "local"
	}
	if cfg.IdleSleep <= 0 {
		cfg.IdleSleep = 10 * time.Millisecond
	}
	errc := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			errc <- workerLoop(ctx, src, n, cfg, w)
		}(w)
	}
	var first error
	for w := 0; w < cfg.Workers; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func workerLoop(ctx context.Context, src Source, n *netlist.Netlist, cfg WorkerConfig, w int) error {
	name := workerName(cfg.ID, w)
	idle := cfg.IdleSleep
	// One reusable backoff timer for the whole loop; time.After here would
	// allocate a timer per idle iteration that lives until it fires.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		g, err := src.Lease(name, cfg.MaxCones)
		switch {
		case errors.Is(err, ErrDone):
			return nil
		case err != nil || g == nil:
			// Transport errors land here too: back off and retry — the
			// scheduler owns correctness, the worker only owes patience.
			if backoff == nil {
				backoff = time.NewTimer(idle)
			} else {
				// Safe: the only way past the select below without
				// returning is draining backoff.C.
				backoff.Reset(idle)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-backoff.C:
			}
			if idle < 16*cfg.IdleSleep {
				idle *= 2
			}
			continue
		}
		idle = cfg.IdleSleep
		ExecuteLease(ctx, src, n, g, cfg.Rewrite)
	}
}

func workerName(id string, w int) string {
	return id + "-" + string(rune('0'+w%10))
}

// ExecuteLease computes the cones of one grant and submits the results,
// heartbeating the lease from a sidecar goroutine. A failed renewal (the
// lease was fenced: expired, stolen whole, or the pool is gone) cancels
// the remaining cones — continuing would be wasted work whose submission
// is rejected anyway. Per-cone results are submitted in one envelope at
// the end; cancelled cones are dropped, not submitted (the scheduler
// re-queues them on expiry).
func ExecuteLease(ctx context.Context, src Source, n *netlist.Netlist, g *Grant, ropts rewrite.Options) (SubmitReply, error) {
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()

	ttl := time.Until(time.Unix(0, g.DeadlineUnixNS))
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hb := time.NewTicker(ttl / 3)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-lctx.Done():
				return
			case <-hb.C:
				if _, err := src.Renew(g.Lease, g.Epoch); errors.Is(err, ErrLeaseExpired) {
					cancel()
					return
				}
			}
		}
	}()

	// Governance: the grant's hints override zero-valued local options so
	// remote peers govern exactly like the coordinator's own workers.
	ropts.Ctx = lctx
	if ropts.BudgetTerms == 0 {
		ropts.BudgetTerms = g.BudgetTerms
	}
	if ropts.ConeDeadline == 0 && g.ConeDeadlineMS > 0 {
		ropts.ConeDeadline = time.Duration(g.ConeDeadlineMS) * time.Millisecond
	}

	var results []rewrite.BitResult
	for _, bit := range g.Cones {
		if lctx.Err() != nil {
			break
		}
		br, _ := rewrite.RewriteCone(n, bit, ropts)
		if br.Status == rewrite.StatusCancelled {
			continue // lease fenced or worker dying: the cone re-queues
		}
		results = append(results, br)
	}
	hb.Stop()
	cancel()
	<-hbDone
	if len(results) == 0 {
		return SubmitReply{}, ctx.Err()
	}
	return src.Submit(g.Lease, g.Epoch, results)
}
