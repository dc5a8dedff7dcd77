package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
)

// montgomeryText renders a Montgomery multiplier as EQN text — the slow
// workload (deep recombination cones) for deadline and overload tests.
func montgomeryText(t *testing.T, m int) string { return multiplierText(t, gen.Montgomery, m) }

// karatsubaText renders a Karatsuba multiplier as EQN text: the slowest to
// rewrite for its size, since its shared subproducts make every cone deep.
func karatsubaText(t *testing.T, m int) string { return multiplierText(t, gen.Karatsuba, m) }

// multiplierText renders build's m-bit multiplier for the default P(x) as
// EQN text.
func multiplierText(t *testing.T, build func(int, gf2poly.Poly) (*netlist.Netlist, error), m int) string {
	t.Helper()
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := build(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// --- dispatcher unit tests -------------------------------------------------

func drainN(t *testing.T, d *dispatcher, n int) []schedEntry {
	t.Helper()
	out := make([]schedEntry, 0, n)
	for i := 0; i < n; i++ {
		e, ok := d.Next()
		if !ok {
			t.Fatalf("dispatcher closed after %d entries, want %d", i, n)
		}
		out = append(out, e)
		d.Release(e.tenant)
	}
	return out
}

func TestDispatcherPriorityOrder(t *testing.T) {
	now := time.Unix(1000, 0)
	d := newDispatcher(time.Hour, func() time.Time { return now })
	d.Push(schedEntry{id: "low", tenant: "a", priority: 9, seq: 1}, 1, 0)
	d.Push(schedEntry{id: "high", tenant: "a", priority: 1, seq: 2}, 1, 0)
	d.Push(schedEntry{id: "mid", tenant: "a", priority: 5, seq: 3}, 1, 0)

	got := drainN(t, d, 3)
	want := []string{"high", "mid", "low"}
	for i, e := range got {
		if e.id != want[i] {
			t.Fatalf("pop %d = %s, want %s (full order %v)", i, e.id, want[i], got)
		}
	}
}

func TestDispatcherWeightedFairness(t *testing.T) {
	now := time.Unix(1000, 0)
	d := newDispatcher(time.Hour, func() time.Time { return now })
	for i := 0; i < 6; i++ {
		d.Push(schedEntry{id: "a", tenant: "heavy", priority: 5, seq: uint64(i)}, 3, 0)
		d.Push(schedEntry{id: "b", tenant: "light", priority: 5, seq: uint64(100 + i)}, 1, 0)
	}
	// First 8 pops: the weight-3 tenant should land ~3x the weight-1 one.
	counts := map[string]int{}
	for _, e := range drainN(t, d, 8) {
		counts[e.tenant]++
	}
	if counts["heavy"] != 6 || counts["light"] != 2 {
		t.Fatalf("8 pops split heavy=%d light=%d, want 6/2", counts["heavy"], counts["light"])
	}
}

func TestDispatcherAgingBeatsFreshHighPriority(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := &clock
	d := newDispatcher(time.Second, func() time.Time { return *now })
	d.Push(schedEntry{id: "old-low", tenant: "a", priority: 9, seq: 1}, 1, 0)
	// 6 aging steps later a fresh priority-5 job arrives: the old job's
	// effective priority is 9-6=3, so it must run first.
	clock = clock.Add(6 * time.Second)
	d.Push(schedEntry{id: "fresh-mid", tenant: "b", priority: 5, seq: 2}, 1, 0)

	if got := drainN(t, d, 2); got[0].id != "old-low" {
		t.Fatalf("aged priority-9 job lost to fresh priority-5: order %v, %v", got[0].id, got[1].id)
	}
}

func TestDispatcherMaxRunningCap(t *testing.T) {
	now := time.Unix(1000, 0)
	d := newDispatcher(time.Hour, func() time.Time { return now })
	d.Push(schedEntry{id: "c1", tenant: "capped", priority: 1, seq: 1}, 1, 1)
	d.Push(schedEntry{id: "c2", tenant: "capped", priority: 1, seq: 2}, 1, 1)
	d.Push(schedEntry{id: "o1", tenant: "other", priority: 9, seq: 3}, 1, 0)

	e1, _ := d.Next() // capped tenant's first job (priority 1)
	if e1.id != "c1" {
		t.Fatalf("first pop %s, want c1", e1.id)
	}
	// capped is now at MaxRunning=1: its second priority-1 job must NOT
	// dispatch; the other tenant's priority-9 job does.
	e2, _ := d.Next()
	if e2.id != "o1" {
		t.Fatalf("second pop %s, want o1 (capped tenant at MaxRunning)", e2.id)
	}
	// Releasing the slot unblocks the capped tenant.
	d.Release("capped")
	e3, _ := d.Next()
	if e3.id != "c2" {
		t.Fatalf("third pop %s, want c2 after Release", e3.id)
	}
	d.Close()
}

// --- quota admission -------------------------------------------------------

func TestTenantQuotaMaxActive(t *testing.T) {
	q, err := NewQueue(Config{
		Dir: t.TempDir(), RetrySeed: 1, Workers: 1,
		RetryBase: time.Hour, RetryCap: 2 * time.Hour,
		Policy: TenantPolicy{
			Tenants: map[string]TenantQuota{"greedy": {MaxActive: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	// Budget-starved jobs fail fast and park in hour-long backoff, pinning
	// their active slots.
	small := eqnText(t, 8)
	spec := func() *JobSpec { return &JobSpec{Netlist: small, BudgetTerms: 1, MaxAttempts: 3} }
	for i := 0; i < 2; i++ {
		sp := spec()
		sp.Tenant = "greedy"
		if _, err := q.Submit(sp); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sp := spec()
	sp.Tenant = "greedy"
	_, err = q.Submit(sp)
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third submit err = %v, want QuotaError", err)
	}
	if qe.Reason != "active" || qe.Tenant != "greedy" {
		t.Fatalf("QuotaError = %+v, want reason=active tenant=greedy", qe)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", qe.RetryAfter)
	}
	// Another tenant is not affected by greedy's quota.
	if _, err := q.Submit(spec()); err != nil {
		t.Fatalf("default-tenant submit blocked by greedy's quota: %v", err)
	}
	// Quota released on terminal: check tenant accounting is visible.
	for _, ts := range q.Tenants() {
		if ts.Tenant == "greedy" {
			if ts.Active != 2 || ts.Rejected != 1 {
				t.Fatalf("greedy status = %+v, want Active=2 Rejected=1", ts)
			}
		}
	}
}

func TestTenantQuotaRateBucket(t *testing.T) {
	q, err := NewQueue(Config{
		Dir: t.TempDir(), RetrySeed: 1, Workers: 1,
		RetryBase: time.Hour, RetryCap: 2 * time.Hour,
		Policy: TenantPolicy{
			Tenants: map[string]TenantQuota{"drip": {Rate: 0.001, Burst: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	small := eqnText(t, 8)
	sp := &JobSpec{Netlist: small, Tenant: "drip", BudgetTerms: 1}
	if _, err := q.Submit(sp); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = q.Submit(&JobSpec{Netlist: small, Tenant: "drip", BudgetTerms: 1})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "rate" {
		t.Fatalf("second submit err = %v, want rate QuotaError", err)
	}
	// 1 token at 0.001/s: the honest hint is ~1000s, derived from the
	// tenant's own bucket, not the global queue.
	if qe.RetryAfter < 500*time.Second {
		t.Fatalf("RetryAfter = %v, want ~1000s from token refill", qe.RetryAfter)
	}
}

func TestTenantQuotaQueuedBytes(t *testing.T) {
	small := eqnText(t, 8)
	q, err := NewQueue(Config{
		Dir: t.TempDir(), RetrySeed: 1, Workers: 1,
		RetryBase: time.Hour, RetryCap: 2 * time.Hour,
		Policy: TenantPolicy{
			Tenants: map[string]TenantQuota{"bulky": {MaxQueuedBytes: int64(len(small)) + 10}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	if _, err := q.Submit(&JobSpec{Netlist: small, Tenant: "bulky", BudgetTerms: 1}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = q.Submit(&JobSpec{Netlist: small, Tenant: "bulky", BudgetTerms: 1})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "bytes" {
		t.Fatalf("second submit err = %v, want bytes QuotaError", err)
	}
}

// --- load shedding ---------------------------------------------------------

func TestShedderStagesAndHysteresis(t *testing.T) {
	s := newShedder(ShedConfig{})
	steps := []struct {
		load float64
		want int
	}{
		{0.50, 0}, {0.80, 1}, {0.92, 2}, {0.99, 3},
		// De-escalation honors hysteresis: stage 3 exits below 0.87,
		// stage 2 below 0.80, stage 1 below 0.65.
		{0.88, 3}, {0.85, 2}, {0.79, 1}, {0.70, 1}, {0.60, 0},
	}
	for i, st := range steps {
		if got := s.recompute(st.load); got != st.want {
			t.Fatalf("step %d: recompute(%.2f) = %d, want %d", i, st.load, got, st.want)
		}
	}
}

func TestShedderMemoryWatermark(t *testing.T) {
	heap := uint64(0)
	s := newShedder(ShedConfig{MemHighBytes: 1 << 30, MemProbe: func() uint64 { return heap }})
	if got := s.recompute(0.1); got != 0 {
		t.Fatalf("low heap: stage %d, want 0", got)
	}
	heap = 2 << 30
	if got := s.recompute(0.1); got != 2 {
		t.Fatalf("high heap: stage %d, want forced 2", got)
	}
	heap = 0
	if got := s.recompute(0.1); got != 0 {
		t.Fatalf("heap back down: stage %d, want 0", got)
	}
}

func TestShedderStageRules(t *testing.T) {
	s := newShedder(ShedConfig{})
	local := &JobSpec{}
	remote := &JobSpec{Shard: -1}
	if err := s.admitStage(0, local, 9); err != nil {
		t.Fatalf("stage 0 rejected priority 9: %v", err)
	}
	if err := s.admitStage(1, local, 7); err == nil {
		t.Fatal("stage 1 admitted priority 7")
	}
	if err := s.admitStage(1, local, 6); err != nil {
		t.Fatalf("stage 1 rejected priority 6: %v", err)
	}
	if err := s.admitStage(2, local, 1); err == nil {
		t.Fatal("stage 2 admitted a local-extraction job")
	}
	if err := s.admitStage(2, remote, 1); err != nil {
		t.Fatalf("stage 2 rejected a coordinator-only job: %v", err)
	}
	if err := s.admitStage(3, remote, 1); err == nil {
		t.Fatal("stage 3 admitted a job")
	}
	var oe *OverloadError
	err := s.admitStage(3, local, 5)
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stage-3 rejection err = %v, want OverloadError", err)
	}
	if oe.Stage != 3 {
		t.Fatalf("OverloadError.Stage = %d, want 3", oe.Stage)
	}
}

// --- batch dedup -----------------------------------------------------------

func TestBatchDedupSingleExtraction(t *testing.T) {
	q, err := NewQueue(Config{Dir: t.TempDir(), RetrySeed: 1, Capacity: 128, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	small := eqnText(t, 8)
	specs := make([]*JobSpec, 50)
	for i := range specs {
		specs[i] = &JobSpec{Netlist: small, Name: "dup"}
	}
	items := q.SubmitBatch(specs)
	ids := make([]string, 0, len(items))
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %d rejected: %v", i, it.Err)
		}
		ids = append(ids, it.State.ID)
	}

	var wantP string
	for _, id := range ids {
		st := waitStatus(t, q, id)
		if st.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, st.Status, st.Error)
		}
		if st.Result == nil || !st.Result.Verified {
			t.Fatalf("job %s: missing/unverified result %+v", id, st.Result)
		}
		if wantP == "" {
			wantP = st.Result.Polynomial
		} else if st.Result.Polynomial != wantP {
			t.Fatalf("job %s polynomial %s, want %s", id, st.Result.Polynomial, wantP)
		}
	}
	if started := q.counter("extractions_started").Value(); started != 1 {
		t.Fatalf("extractions_started = %d for 50 identical jobs, want exactly 1", started)
	}
	if deduped := q.counter("jobs_deduped").Value(); deduped != 49 {
		t.Fatalf("jobs_deduped = %d, want 49", deduped)
	}
}

func TestDedupLeaderFailureFansOutToFollowers(t *testing.T) {
	q, err := NewQueue(Config{Dir: t.TempDir(), RetrySeed: 1, Workers: 1, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	// Budget-starved: the leader fails permanently; followers must fail too,
	// not hang forever waiting on a result that never comes.
	small := eqnText(t, 8)
	items := q.SubmitBatch([]*JobSpec{
		{Netlist: small, BudgetTerms: 1, MaxAttempts: 1},
		{Netlist: small, BudgetTerms: 1, MaxAttempts: 1},
	})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %d: %v", i, it.Err)
		}
		st := waitStatus(t, q, it.State.ID)
		if st.Status != StatusFailed || st.Error == "" {
			t.Fatalf("item %d ended %s (%q), want failed with the leader's error", i, st.Status, st.Error)
		}
	}
}

// --- deadline propagation --------------------------------------------------

func TestDeadlineExpiresWhileQueued(t *testing.T) {
	q, err := NewQueue(Config{Dir: t.TempDir(), RetrySeed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	// A slow blocker pins the single worker past the second job's 1ms
	// deadline; the deadline job must fail at dispatch without extracting.
	blocker, err := q.Submit(&JobSpec{Netlist: eqnText(t, 32), Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := q.Submit(&JobSpec{Netlist: eqnText(t, 8), DeadlineMS: 1, Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, q, doomed.ID)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("doomed job: %s (%q), want deadline failure", st.Status, st.Error)
	}
	if st.Attempts != 0 {
		t.Fatalf("doomed job burned %d attempts, want 0 (failed at dispatch)", st.Attempts)
	}
	if n := q.counter("jobs_deadline_expired").Value(); n < 1 {
		t.Fatalf("jobs_deadline_expired = %d, want >= 1", n)
	}
	waitStatus(t, q, blocker.ID)
}

func TestDeadlineCancelsMidExtraction(t *testing.T) {
	q, err := NewQueue(Config{
		Dir: t.TempDir(), RetrySeed: 1, Workers: 1, MaxAttempts: 3,
		ShardLeaseTTL: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	// A sharded extraction that outlives its 150ms deadline by far: the
	// deadline counts from admission, which lints before it starts, and an
	// m=256 Karatsuba multiplier parses and re-lints in tens of
	// milliseconds but takes about two seconds of rewriting on two cores,
	// its shared subproducts making every cone deep. The deadline context
	// must cancel the governor cone work AND release the pool's leases
	// (pool.Close on the extract return path) within one TTL. The race
	// detector slows every phase about fivefold, the deadline with them.
	deadlineMS := int64(150)
	if raceEnabled {
		deadlineMS = 1000
	}
	st0, err := q.Submit(&JobSpec{
		Netlist: karatsubaText(t, 256), Shard: 2, DeadlineMS: deadlineMS, Name: "deadline-shard",
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st := waitStatus(t, q, st0.ID)
	elapsed := time.Since(start)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("job ended %s (%q), want deadline failure", st.Status, st.Error)
	}
	// Attempts must not retry past an absolute deadline.
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (no retry after deadline)", st.Attempts)
	}
	// Terminal within deadline + one lease TTL + scheduling slack.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline job took %v to settle, want prompt cancellation", elapsed)
	}
	// Rewriting had started: the deadline cancelled leased cone work, not
	// parsing or run-time lint.
	if n := q.counter("leases_granted").Value(); n < 1 {
		t.Fatalf("leases_granted = %d, want >= 1 (deadline fired before rewriting)", n)
	}
	// Every lease the pool granted was released when the pool closed.
	if active := q.gauge("leases_active").Value(); active != 0 {
		t.Fatalf("leases_active = %d after deadline cancellation, want 0", active)
	}
	if n := q.counter("jobs_deadline_expired").Value(); n < 1 {
		t.Fatalf("jobs_deadline_expired = %d, want >= 1", n)
	}
}

// --- readyz / shed integration --------------------------------------------

func TestReadyStateFlipsUnderSaturationAndBack(t *testing.T) {
	q, err := NewQueue(Config{
		Dir: t.TempDir(), RetrySeed: 1, Capacity: 4, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	if rs := q.ReadyState(); !rs.Ready {
		t.Fatalf("fresh queue not ready: %+v", rs)
	}
	// Fill to capacity: two slow Montgomery jobs pin both workers for
	// seconds while two small jobs queue behind them, so load is still 1.0
	// (=> stage 3) when sampled — small jobs alone can finish during the
	// fsync-paced submit loop and deflate the load before the check.
	slow, small := montgomeryText(t, 96), eqnText(t, 16)
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		text := small
		if i < 2 {
			text = slow
		}
		st, err := q.Submit(&JobSpec{Netlist: text})
		if err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	rs := q.ReadyState()
	if rs.Ready || rs.ShedStage < 3 {
		t.Fatalf("saturated queue ReadyState = %+v, want not-ready at stage 3", rs)
	}
	if rs.Reason == "" {
		t.Fatal("not-ready state must carry a reason")
	}
	// Drain the work; readiness must flip back on its own.
	for _, id := range ids {
		waitStatus(t, q, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rs = q.ReadyState()
		if rs.Ready && rs.ShedStage == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ReadyState never recovered: %+v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
