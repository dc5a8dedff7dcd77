package diffcheck

import (
	"context"
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
// (package shard): it plants a known P(x), then runs the production worker
// loop (shard.RunWorkers) against a fault-injecting Source around the pool
// — workers are killed mid-lease, heartbeats are swallowed so leases expire
// under their owners, submissions are delayed past the deadline, split and
// reordered, and duplicated — while a partitioner force-expires live leases.
// The oracle then demands that none of it mattered:
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
		Hash: hash, Order: rewrite.ConeOrder(n),
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

	src := newChaosSource(ctx, pool, c.Seed^0x5ca1ab1e)
	src.holdFirst = true
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		shard.RunWorkers(ctx, src, n, shard.WorkerConfig{
			ID: "chaos", Workers: chaosWorkerCount, IdleSleep: time.Millisecond,
		})
	}()
	// The partitioner force-expires a random live lease now and then — the
	// scheduler-side view of a worker SIGKILL or network partition.
	partDone := make(chan struct{})
	go func() {
		defer close(partDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(10+src.intn(30)) * time.Millisecond):
			}
			if id := src.randomLease(); id != "" {
				pool.ExpireLease(id)
			}
		}
	}()

	*stage = "chaos-run"
	waitErr := pool.Wait(ctx)
	cancel()
	<-workersDone
	<-partDone
	if waitErr != nil {
		return fail(fmt.Errorf("chaos extraction did not terminate within %v: %w (stats %+v)",
			chaosCaseBudget, waitErr, pool.Stats()))
	}

	stats := pool.Stats()
	res.Verdict = map[string]int64{
		"kills": src.kills, "expired": int64(stats.Expired),
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

// leaseFate is what happens to a lease's worker, drawn when it is granted.
type leaseFate int

const (
	fateHonest  leaseFate = iota
	fateKilled            // the worker dies mid-lease
	fateStarved           // its heartbeats are lost on the way
)

// chaosSource is a shard.Source around a pool that mistreats the lease
// protocol the way unreliable workers and networks do; shard.RunWorkers
// drives it, so every fault lands on the production worker loop. Each
// lease draws its fate when it is granted:
//
//   - killed (1 in 5): renewals report ErrLeaseExpired to the worker, so it
//     stops computing; the pool is not told and the submission is
//     swallowed, so the lease expires and its cones re-queue elsewhere;
//   - starved (1 in 5): renewals report a success that never reaches the
//     pool, so the lease expires under a worker that keeps computing and
//     its late submission must be fenced or deduplicated;
//   - honest: renewals reach the pool.
//
// Every submission that is sent is delayed by 30–70 ms, mostly past the
// lease TTL (1 in 4), split and sent tail first (1 in 3), and re-sent
// whole (1 in 3). With holdFirst, the first submission that is sent is
// also held until its lease has expired, so a case fences at least one
// zombie result however fast its cones finish.
type chaosSource struct {
	pool *shard.Pool
	// sleep waits d for a delayed submission and reports false when the
	// case ended first. Tests swap in a fake clock's Advance.
	sleep func(d time.Duration) bool
	// holdFirst is cleared by the submission it holds.
	holdFirst bool

	mu     sync.Mutex
	rng    *rand.Rand
	fates  map[string]leaseFate
	recent []string // recently granted lease IDs, for the partitioner to shoot at

	kills          int64 // leases whose worker was killed mid-lease
	swallowedHB    int64 // leases whose heartbeats never reached the pool
	delayedSubmits int64 // submissions delayed past the lease TTL
	splitSubmits   int64 // envelopes split and submitted tail first
	dupSubmits     int64 // envelopes submitted twice
}

func newChaosSource(ctx context.Context, pool *shard.Pool, seed int64) *chaosSource {
	return &chaosSource{
		pool: pool,
		sleep: func(d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return false
			case <-t.C:
				return true
			}
		},
		rng:   rand.New(rand.NewSource(seed)),
		fates: map[string]leaseFate{},
	}
}

func (s *chaosSource) intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

func (s *chaosSource) randomLease() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recent) == 0 {
		return ""
	}
	return s.recent[s.rng.Intn(len(s.recent))]
}

func (s *chaosSource) fate(leaseID string) leaseFate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fates[leaseID]
}

// Lease grants from the pool and draws the lease's fate.
func (s *chaosSource) Lease(worker string, max int) (*shard.Grant, error) {
	g, err := s.pool.Lease(worker, max)
	if err != nil {
		return g, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r := s.rng.Intn(10); {
	case r < 2:
		s.fates[g.Lease] = fateKilled
		s.kills++
	case r < 4:
		s.fates[g.Lease] = fateStarved
		s.swallowedHB++
	}
	s.recent = append(s.recent, g.Lease)
	if len(s.recent) > 32 {
		s.recent = s.recent[len(s.recent)-32:]
	}
	return g, nil
}

// Renew heartbeats honest leases only.
func (s *chaosSource) Renew(leaseID string, epoch uint64) (time.Time, error) {
	switch s.fate(leaseID) {
	case fateKilled:
		return time.Time{}, shard.ErrLeaseExpired
	case fateStarved:
		return time.Time{}, nil
	}
	return s.pool.Renew(leaseID, epoch)
}

// Submit swallows a killed worker's results and abuses the rest.
func (s *chaosSource) Submit(leaseID string, epoch uint64, results []rewrite.BitResult) (shard.SubmitReply, error) {
	if s.fate(leaseID) == fateKilled {
		return shard.SubmitReply{}, nil
	}
	s.mu.Lock()
	hold := s.holdFirst
	s.holdFirst = false
	var delay time.Duration
	if !hold && s.rng.Intn(4) == 0 {
		delay = time.Duration(30+s.rng.Intn(40)) * time.Millisecond
		s.delayedSubmits++
	}
	split := len(results) > 1 && s.rng.Intn(3) == 0
	if split {
		s.splitSubmits++
	}
	dup := s.rng.Intn(3) == 0
	if dup {
		s.dupSubmits++
	}
	s.mu.Unlock()

	// A held worker stalls past its TTL (it stopped heartbeating when its
	// cones were done). Wait out the expiry even when the case is ending:
	// the pool cannot finish before this lease's cones re-queue, so the
	// wait is bounded by the TTL, and the late submission must be fenced.
	for hold && s.pool.LeaseLive(leaseID) {
		time.Sleep(time.Millisecond)
	}
	if delay > 0 && !s.sleep(delay) {
		return shard.SubmitReply{}, context.Canceled
	}
	// Only the last submission's verdict goes back to the worker; the pool
	// classifies the others (often fenced or duplicate) on its own.
	var (
		reply shard.SubmitReply
		err   error
	)
	if split {
		half := len(results) / 2
		s.pool.Submit(leaseID, epoch, results[half:])
		reply, err = s.pool.Submit(leaseID, epoch, results[:half])
	} else {
		reply, err = s.pool.Submit(leaseID, epoch, results)
	}
	if dup {
		s.pool.Submit(leaseID, epoch, results)
	}
	return reply, err
}
