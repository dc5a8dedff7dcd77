package diffcheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/server"
)

// runOverload is the adversarial-tenant oracle for the gfred admission and
// scheduling plane (package server): a small queue — 16 slots, 2 workers —
// is attacked by a greedy batch-flooder and a deadline-abuser while one
// well-behaved tenant slow-drips ordinary jobs through the same front door.
// The oracle demands that multi-tenant isolation actually held:
//
//   - every well-behaved job completes with exactly the planted P(x),
//     golden-model verified, and its p99 latency stays bounded — the flood
//     cannot starve a polite tenant;
//   - no quota was ever violated: sampled concurrently with the attack, no
//     tenant exceeds its MaxActive or MaxRunning grant;
//   - the batch-flooder's identical submissions collapse onto one extraction
//     (dedup observed), its overflow is rejected by its own token bucket
//     (quota rejections observed), and the deadline-abuser's expired jobs
//     fail without burning a worker (deadline expiries observed);
//   - every accepted job reaches exactly one terminal event — admission
//     under attack never loses or double-settles a job.
func runOverload(c Case, stage *string, fail func(error) Result) Result {
	*stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}
	res := Result{Case: c, Status: Pass, Gates: n.NumGates()}
	var wellBuf bytes.Buffer
	if err := n.WriteEQN(&wellBuf); err != nil {
		return fail(err)
	}
	wellSrc := wellBuf.String()

	// The adversaries attack with their own multipliers (distinct content,
	// distinct architectures); the oracle only asserts the well-behaved
	// tenant's extractions, the adversaries exist to saturate the queue.
	r := rand.New(rand.NewSource(c.Seed ^ 0x0ff10ad))
	greedySrc, err := overloadSource(r, gen.MastrovitoMatrix)
	if err != nil {
		return fail(err)
	}
	abuseSrc, err := overloadSource(r, gen.Montgomery)
	if err != nil {
		return fail(err)
	}

	*stage = "queue"
	dir, err := os.MkdirTemp("", "gfre-overload-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	journal := obs.NewJournal(1 << 16)
	policy := server.TenantPolicy{
		Tenants: map[string]server.TenantQuota{
			// The polite tenant: high weight, good priority, no caps.
			"well": {Weight: 4, Priority: 2},
			// The flooder: a tight token bucket plus active/running caps; its
			// own quota, not global collapse, must absorb the flood.
			"greedy": {Rate: 150, Burst: 8, MaxActive: 7, MaxRunning: 1, Priority: 6},
			// The deadline-abuser: lowest class, so stage-1 shedding and the
			// dispatcher both deprioritize it.
			"abuser": {MaxActive: 4, MaxRunning: 1, Priority: 8},
		},
	}
	q, err := server.NewQueue(server.Config{
		Dir: dir, Capacity: 16, Workers: 2, MaxAttempts: 1,
		RetrySeed: c.Seed, Journal: journal,
		AgingStep: 25 * time.Millisecond,
		Policy:    policy,
	})
	if err != nil {
		return fail(err)
	}
	defer q.Drain(time.Second)
	metrics := q.Recorder().Metrics()

	ctx, cancel := context.WithTimeout(context.Background(), overloadCaseBudget)
	defer cancel()

	var (
		mu       sync.Mutex
		accepted []string
	)
	admit := func(items []server.BatchItem) {
		mu.Lock()
		for _, it := range items {
			if it.Err == nil {
				accepted = append(accepted, it.State.ID)
			}
		}
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The greedy tenant floods batches: five identical items per round (the
	// dedup probe) plus three knob-varied ones that force real extractions
	// (the capacity probe). Rounds are bounded so the journal cannot wrap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < overloadMaxRounds; round++ {
			select {
			case <-stop:
				// The well tenant can finish before the flood outruns the
				// greedy quota (fast extractions drain its active jobs
				// between rounds); keep flooding, back to back, until
				// admission control engages, so the assert stage judges a
				// real attack rather than the host's speed.
				if metrics.Counter("jobs_quota_rejected").Value() > 0 {
					return
				}
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
			specs := make([]*server.JobSpec, 0, 8)
			for i := 0; i < 5; i++ {
				specs = append(specs, &server.JobSpec{Netlist: greedySrc, Name: "flood", Tenant: "greedy"})
			}
			for i := 0; i < 3; i++ {
				specs = append(specs, &server.JobSpec{
					Netlist: greedySrc, Name: "flood-u", Tenant: "greedy",
					// A distinct (harmless) knob defeats dedup: each of these
					// is new content for the hash and extracts for real.
					ConeDeadlineMS: int64(600000 + round*8 + i),
				})
			}
			admit(q.SubmitBatch(specs))
		}
	}()

	// The abuser submits jobs whose 1ms deadline cannot survive any queueing:
	// they must expire at dispatch — counted, not retried, not extracted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < overloadMaxRounds; round++ {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(3 * time.Millisecond):
			}
			st, err := q.Submit(&server.JobSpec{
				Netlist: abuseSrc, Name: "abuse", Tenant: "abuser", DeadlineMS: 1,
			})
			admit([]server.BatchItem{{State: st, Err: err}})
		}
	}()

	// The quota monitor samples tenant state concurrently with the attack:
	// a single observation above MaxActive or MaxRunning is a violation.
	violations := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
			for _, ts := range q.Tenants() {
				quota := policy.Quota(ts.Tenant)
				switch {
				case quota.MaxActive > 0 && ts.Active > quota.MaxActive:
					overloadViolation(violations, fmt.Sprintf("tenant %s active %d > quota %d", ts.Tenant, ts.Active, quota.MaxActive))
				case quota.MaxRunning > 0 && ts.Running > quota.MaxRunning:
					overloadViolation(violations, fmt.Sprintf("tenant %s running %d > quota %d", ts.Tenant, ts.Running, quota.MaxRunning))
				}
			}
		}
	}()

	// The well-behaved tenant slow-drips jobs and times each one end to end.
	// Admission retries on transient rejection (a polite client's behavior);
	// the latency clock starts at acceptance.
	*stage = "drive"
	var latencies []time.Duration
	wellDone := 0
	for i := 0; i < overloadWellJobs; i++ {
		st, err := overloadSubmitWell(ctx, q, wellSrc, fmt.Sprintf("well-%d", i))
		if err != nil {
			close(stop)
			wg.Wait()
			return fail(err)
		}
		admit([]server.BatchItem{{State: st, Err: nil}})
		start := time.Now()
		final, err := overloadAwait(ctx, q, st.ID)
		if err != nil {
			close(stop)
			wg.Wait()
			return fail(err)
		}
		latencies = append(latencies, time.Since(start))
		if final.Status != server.StatusDone {
			close(stop)
			wg.Wait()
			return fail(fmt.Errorf("overload: well job %s ended %s under attack: %s", st.ID, final.Status, final.Error))
		}
		got, err := gf2poly.Parse(final.Result.Polynomial)
		if err != nil {
			close(stop)
			wg.Wait()
			return fail(fmt.Errorf("overload: well job %s result unparsable: %v", st.ID, err))
		}
		if !got.Equal(c.P) {
			close(stop)
			wg.Wait()
			return fail(fmt.Errorf("overload: well job extracted %v, planted %v", got, c.P))
		}
		if !final.Result.Verified {
			close(stop)
			wg.Wait()
			return fail(fmt.Errorf("overload: well job %s skipped golden-model verification", st.ID))
		}
		wellDone++
	}
	close(stop)
	wg.Wait()

	select {
	case v := <-violations:
		return fail(fmt.Errorf("overload: quota violated under attack: %s", v))
	default:
	}

	// Settle: with the attack stopped, every accepted job must reach a
	// terminal state on its own (expired, deduped, extracted, or failed).
	*stage = "settle"
	mu.Lock()
	ids := append([]string(nil), accepted...)
	mu.Unlock()
	for _, id := range ids {
		if _, err := overloadAwait(ctx, q, id); err != nil {
			return fail(fmt.Errorf("overload: job %s never settled: %v", id, err))
		}
	}

	// Deterministic deadline probe: if the racing abuser never managed to
	// expire a job (an idle-enough queue dispatches within 1ms), park a
	// 1ms-deadline job behind a wall of blockers until one expires.
	*stage = "deadline"
	for round := 0; metrics.Counter("jobs_deadline_expired").Value() == 0 && round < 3; round++ {
		var probe []string
		for i := 0; i < 4*(round+1); i++ {
			st, err := overloadSubmitWell(ctx, q, wellSrc, fmt.Sprintf("blocker-%d-%d", round, i))
			if err != nil {
				return fail(err)
			}
			probe = append(probe, st.ID)
		}
		st, err := q.Submit(&server.JobSpec{
			Netlist: abuseSrc, Name: "abuse-probe", Tenant: "abuser", DeadlineMS: 1,
		})
		if err == nil {
			probe = append(probe, st.ID)
		}
		for _, id := range probe {
			if _, err := overloadAwait(ctx, q, id); err != nil {
				return fail(err)
			}
		}
		ids = append(ids, probe...)
	}

	res.Overloaded = true
	res.QuotaRejects = int(metrics.Counter("jobs_quota_rejected").Value())
	res.ShedRejects = int(metrics.Counter("jobs_shed").Value())
	res.Deduped = int(metrics.Counter("jobs_deduped").Value())
	res.DeadlineExpired = int(metrics.Counter("jobs_deadline_expired").Value())

	*stage = "assert"
	if res.QuotaRejects == 0 {
		return fail(fmt.Errorf("overload: the flood was never quota-rejected — admission control did not engage"))
	}
	if res.Deduped == 0 {
		return fail(fmt.Errorf("overload: identical batch items were never deduplicated"))
	}
	if res.DeadlineExpired == 0 {
		return fail(fmt.Errorf("overload: no 1ms-deadline job ever expired, even behind %d blockers", 4+8+12))
	}
	if wellDone != overloadWellJobs {
		return fail(fmt.Errorf("overload: %d of %d well-behaved jobs completed", wellDone, overloadWellJobs))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	res.WellP99MS = p99.Milliseconds()
	if p99 > overloadWellP99Budget {
		return fail(fmt.Errorf("overload: well-behaved p99 %v exceeds %v — the flood starved the polite tenant", p99, overloadWellP99Budget))
	}

	// The ledger invariant: every accepted job owes exactly one terminal
	// event, however it ended.
	*stage = "ledger"
	terminals := map[string]int{}
	events, _ := journal.ReplaySince(0)
	for _, ev := range events {
		if ev.Ev == "job_done" || ev.Ev == "job_failed" {
			terminals[ev.Job]++
		}
	}
	for _, id := range ids {
		if terminals[id] != 1 {
			return fail(fmt.Errorf("overload: job %s has %d terminal events, want exactly 1", id, terminals[id]))
		}
	}
	return res
}

const (
	overloadCaseBudget    = 60 * time.Second
	overloadWellJobs      = 6
	overloadMaxRounds     = 250
	overloadWellP99Budget = 5 * time.Second
)

// overloadSource generates a small multiplier in the given architecture and
// renders it to EQN text for submission.
func overloadSource(r *rand.Rand, generate func(int, gf2poly.Poly) (*netlist.Netlist, error)) (string, error) {
	m := 4 + r.Intn(4)
	p, err := gf2poly.RandomIrreducible(r, m)
	if err != nil {
		return "", err
	}
	n, err := generate(m, p)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// overloadSubmitWell submits one well-tenant job, retrying transient
// admission rejections (full queue, shed stage) until the context expires.
func overloadSubmitWell(ctx context.Context, q *server.Queue, src, name string) (*server.JobState, error) {
	for {
		st, err := q.Submit(&server.JobSpec{Netlist: src, Name: name, Tenant: "well"})
		switch {
		case err == nil:
			return st, nil
		case errors.Is(err, server.ErrQueueFull) || errors.Is(err, server.ErrOverloaded):
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("overload: well tenant starved of admission: %w", err)
			case <-time.After(time.Millisecond):
			}
		default:
			return nil, fmt.Errorf("overload: well tenant rejected: %w", err)
		}
	}
}

// overloadAwait polls the job to a terminal state.
func overloadAwait(ctx context.Context, q *server.Queue, id string) (*server.JobState, error) {
	for {
		st, err := q.Get(id)
		if err != nil {
			return nil, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("overload: job %s still %s at case budget", id, st.Status)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// overloadViolation records the first quota violation (later ones drop).
func overloadViolation(ch chan string, msg string) {
	select {
	case ch <- msg:
	default:
	}
}
