package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
	"github.com/galoisfield/gfre/internal/shard"
)

// runChaos is the chaos-injection oracle for lease-based sharded extraction
// (package shard): it plants a known P(x), then executes the extraction
// through a pack of deliberately unreliable workers — workers are killed
// mid-lease, heartbeats are swallowed so leases expire under their owners,
// live leases are force-expired ("network partition"), submissions are
// delayed past the deadline, duplicated and submitted out of order. The
// oracle then demands that none of it mattered:
//
//   - the assembled extraction recovers exactly the planted P(x) and passes
//     golden-model verification;
//   - no cone result was ever accepted twice (Stats().DoubleAccepts == 0 —
//     the epoch fence held against every zombie);
//   - the run terminates (a hang is caught by the campaign's case timeout).
func runChaos(c Case, stage *string, fail func(error) Result) Result {
	*stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}
	res := Result{Case: c, Status: Pass, Gates: n.NumGates()}

	hash, err := checkpoint.HashNetlist(n)
	if err != nil {
		return fail(err)
	}

	// Aggressive timings: leases must expire, back off and be stolen many
	// times within one case, so every recovery path actually runs.
	*stage = "pool"
	pool, err := shard.NewPool(shard.Config{
		Hash: hash, Bits: c.M,
		LeaseTTL:         40 * time.Millisecond,
		MaxConesPerLease: 4,
		BackoffBase:      time.Millisecond,
		BackoffCap:       8 * time.Millisecond,
		StealAge:         15 * time.Millisecond,
		Seed:             c.Seed,
	})
	if err != nil {
		return fail(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), chaosCaseBudget)
	defer cancel()

	ch := &chaosWorkers{
		pool: pool,
		rng:  rand.New(rand.NewSource(c.Seed ^ 0x5ca1ab1e)),
	}
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkerCount; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch.loop(ctx, n, w)
		}(w)
	}
	// The partitioner force-expires a random live lease now and then — the
	// scheduler-side view of a worker SIGKILL or network partition.
	partDone := make(chan struct{})
	go func() {
		defer close(partDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(10+ch.intn(30)) * time.Millisecond):
			}
			if id := ch.randomLease(); id != "" && pool.ExpireLease(id) {
				ch.count(&ch.forcedExpiries)
			}
		}
	}()

	*stage = "chaos-run"
	waitErr := pool.Wait(ctx)
	cancel()
	wg.Wait()
	<-partDone
	if waitErr != nil {
		return fail(fmt.Errorf("chaos extraction did not terminate within %v: %w (stats %+v)",
			chaosCaseBudget, waitErr, pool.Stats()))
	}

	stats := pool.Stats()
	res.Verdict = map[string]int64{
		"kills": ch.kills, "expired": int64(stats.Expired),
		"fenced": int64(stats.Fenced), "stolen": int64(stats.Stolen),
	}

	// The fence invariant: no cone accepted under two epochs, ever.
	*stage = "fence"
	if stats.DoubleAccepts != 0 {
		return fail(fmt.Errorf("chaos: %d cone results double-accepted — the epoch fence is broken (stats %+v)",
			stats.DoubleAccepts, stats))
	}
	if stats.Accepted != c.M {
		return fail(fmt.Errorf("chaos: %d cones accepted for %d bits (stats %+v)", stats.Accepted, c.M, stats))
	}

	// The pipeline oracle: the assembled result, fed through the
	// extraction pipeline as its rewriting stage, must yield exactly the
	// planted P(x), with golden-model verification passing.
	*stage = "assemble"
	rw := pool.Result()
	rw.Threads = chaosWorkerCount
	poolResult := func(*netlist.Netlist, rewrite.Options) (*rewrite.Result, error) { return rw, nil }
	ext, _, _, err := extract.Run(n, extract.Options{Threads: c.Threads}, extract.Stages{Rewrite: poolResult})
	if err != nil {
		return fail(err)
	}
	*stage = "compare"
	if !ext.P.Equal(c.P) {
		return fail(fmt.Errorf("chaos: extracted %v, planted %v", ext.P, c.P))
	}
	if !ext.Verified {
		return fail(fmt.Errorf("chaos: golden-model verification did not run"))
	}
	return res
}

const (
	chaosWorkerCount = 4
	chaosCaseBudget  = 60 * time.Second
)

// chaosWorkers drives unreliable workers against one pool and tallies the
// faults it injected.
type chaosWorkers struct {
	pool *shard.Pool

	mu     sync.Mutex
	rng    *rand.Rand
	leases []string // recently seen lease IDs, for the partitioner to shoot at

	kills          int64 // workers killed mid-lease (cones abandoned)
	swallowedHB    int64 // heartbeats dropped so the lease expires under its owner
	dupSubmits     int64 // envelopes submitted twice
	splitSubmits   int64 // envelopes split and submitted tail-first
	delayedSubmits int64 // submissions delayed past the lease deadline
	forcedExpiries int64 // leases force-expired by the partitioner
}

func (ch *chaosWorkers) intn(n int) int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.rng.Intn(n)
}

func (ch *chaosWorkers) count(p *int64) {
	ch.mu.Lock()
	*p++
	ch.mu.Unlock()
}

func (ch *chaosWorkers) recordLease(id string) {
	ch.mu.Lock()
	ch.leases = append(ch.leases, id)
	if len(ch.leases) > 32 {
		ch.leases = ch.leases[len(ch.leases)-32:]
	}
	ch.mu.Unlock()
}

func (ch *chaosWorkers) randomLease() string {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if len(ch.leases) == 0 {
		return ""
	}
	return ch.leases[ch.rng.Intn(len(ch.leases))]
}

// loop is one unreliable worker: it leases, computes, and mistreats the
// lease protocol in every way a real distributed worker could.
func (ch *chaosWorkers) loop(ctx context.Context, n *netlist.Netlist, w int) {
	name := fmt.Sprintf("chaos-%d", w)
	for ctx.Err() == nil {
		g, err := ch.pool.Lease(name, 0)
		switch {
		case errors.Is(err, shard.ErrDone):
			return
		case err != nil:
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(1+ch.intn(4)) * time.Millisecond):
			}
			continue
		}
		ch.recordLease(g.Lease)
		ch.execute(ctx, n, g)
	}
}

// execute computes the cones of one grant under a chaos regime drawn per
// lease: killed mid-lease, heartbeat-starved, or merely abused on submit.
func (ch *chaosWorkers) execute(ctx context.Context, n *netlist.Netlist, g *shard.Grant) {
	regime := ch.intn(10)

	// Regimes 0-1: SIGKILL mid-lease — maybe compute a cone, submit
	// nothing. The lease expires and every cone re-queues elsewhere.
	if regime < 2 {
		ch.count(&ch.kills)
		if len(g.Cones) > 0 && ch.intn(2) == 0 {
			rewrite.RewriteCone(n, g.Cones[0], rewrite.Options{Ctx: ctx})
		}
		return
	}

	// Regimes 2-3 starve the heartbeat: the lease expires under its owner
	// while it keeps computing, so the eventual submission must be fenced
	// (or deduped), never double-counted. Other regimes renew properly.
	starve := regime < 4
	if starve {
		ch.count(&ch.swallowedHB)
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	var hbWG sync.WaitGroup
	if !starve {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					if _, err := ch.pool.Renew(g.Lease, g.Epoch); err != nil {
						return
					}
				}
			}
		}()
	}

	var cones []checkpoint.Cone
	for _, bit := range g.Cones {
		if ctx.Err() != nil {
			break
		}
		br, _ := rewrite.RewriteCone(n, bit, rewrite.Options{Ctx: ctx})
		if br.Status == rewrite.StatusCancelled {
			continue
		}
		cones = append(cones, checkpoint.FromBitResult(br))
	}
	hbCancel()
	hbWG.Wait()
	if len(cones) == 0 {
		return
	}

	// Delay some submissions past the lease TTL — the scheduler must fence
	// or dedup them.
	if ch.intn(4) == 0 {
		ch.count(&ch.delayedSubmits)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Duration(30+ch.intn(40)) * time.Millisecond):
		}
	}
	// Reorder: split the envelope and submit the tail first; otherwise one
	// envelope. Errors (fenced leases) are the scheduler's business.
	if len(cones) > 1 && ch.intn(3) == 0 {
		ch.count(&ch.splitSubmits)
		half := len(cones) / 2
		ch.pool.Submit(g.Lease, g.Epoch, cones[half:])
		ch.pool.Submit(g.Lease, g.Epoch, cones[:half])
	} else {
		ch.pool.Submit(g.Lease, g.Epoch, cones)
	}
	// Duplicate: re-send the whole envelope (idempotency probe).
	if ch.intn(3) == 0 {
		ch.count(&ch.dupSubmits)
		ch.pool.Submit(g.Lease, g.Epoch, cones)
	}
}
