package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// eqnText renders a generated multiplier as EQN text, the upload format.
func eqnText(t *testing.T, m int) string {
	t.Helper()
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// waitStatus polls until the job reaches a terminal state.
func waitStatus(t *testing.T, q *Queue, id string) *JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state in 30s")
	return nil
}

func TestQueueRunsJobToCompletion(t *testing.T) {
	q, err := NewQueue(Config{Dir: t.TempDir(), RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	st, err := q.Submit(&JobSpec{Netlist: eqnText(t, 8), Name: "gf8"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusQueued || st.ID == "" {
		t.Fatalf("submission state: %+v", st)
	}
	final := waitStatus(t, q, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	p, _ := polytab.Default(8)
	if final.Result == nil || final.Result.Polynomial != p.String() {
		t.Fatalf("result: %+v", final.Result)
	}
	if !final.Result.Verified {
		t.Fatal("service skipped verification")
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts=%d, want 1", final.Attempts)
	}
}

func TestQueueFullSubmitRejected(t *testing.T) {
	// Deterministic occupancy: budget-starved jobs fail their first attempt
	// in milliseconds and then park in an hour-long retry backoff, holding
	// their slots regardless of how fast the worker runs.
	q, err := NewQueue(Config{
		Dir: t.TempDir(), Capacity: 2, RetrySeed: 1,
		RetryBase: time.Hour, RetryCap: 2 * time.Hour, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(5 * time.Second)

	small := eqnText(t, 8)
	ids := []string{}
	for i := 0; i < 2; i++ {
		st, err := q.Submit(&JobSpec{Netlist: small, BudgetTerms: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitBackoff(t, q, id)
	}
	if _, err := q.Submit(&JobSpec{Netlist: small}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err=%v, want ErrQueueFull", err)
	}
}

// waitBackoff polls until the job has burned one attempt and is parked in
// retry backoff (non-terminal, so it still occupies a queue slot).
func waitBackoff(t *testing.T, q *Queue, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Attempts >= 1 && st.Status == StatusQueued {
			return
		}
		if st.Status.Terminal() {
			t.Fatalf("job %s went terminal (%s: %s), expected backoff", id, st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never entered backoff: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	q, err := NewQueue(Config{Dir: t.TempDir(), RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	for name, spec := range map[string]*JobSpec{
		"empty":      {},
		"garbage":    {Netlist: "this is not a netlist"},
		"bad format": {Netlist: eqnText(t, 4), Format: "vhdl"},
	} {
		if _, err := q.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", name, err)
		}
	}
	if q.Active() != 0 {
		t.Fatalf("rejected specs entered the queue: active=%d", q.Active())
	}
}

func TestRetryableErrorBacksOffThenFails(t *testing.T) {
	rec := obs.NewRecorder()
	q, err := NewQueue(Config{
		Dir: t.TempDir(), MaxAttempts: 3,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
		Recorder: rec, RetrySeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	// An absurdly small term budget aborts every cone — a resource failure,
	// which is retryable (the operator may raise the budget or the box may
	// have more memory next time), until attempts run out.
	st, err := q.Submit(&JobSpec{Netlist: eqnText(t, 8), BudgetTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, q, st.ID)
	if final.Status != StatusFailed {
		t.Fatalf("budget-starved job ended %s", final.Status)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts=%d, want 3 (retry ladder exhausted)", final.Attempts)
	}
	if got := rec.Metrics().Counter("jobs_retried").Value(); got != 2 {
		t.Fatalf("jobs_retried=%d, want 2", got)
	}
}

func TestSpoolReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	m := 16
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	net16, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net16.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}

	// Fabricate the spool of a daemon that died mid-extraction: a job in
	// state "running" whose checkpoint directory holds 5 completed cones.
	id := "00000000000000aa"
	if err := saveSpec(dir, id, &JobSpec{Netlist: buf.String()}); err != nil {
		t.Fatal(err)
	}
	if err := saveState(dir, &JobState{
		ID: id, Status: StatusRunning, Attempts: 1, MaxAttempts: 3,
		SubmittedUnixNS: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	// The daemon will parse the spooled text with the job ID as the netlist
	// name, and the checkpoint binds to that parsed netlist's content hash —
	// build the fixture checkpoint the same way.
	asParsed, err := netlist.ReadEQN(strings.NewReader(buf.String()), id)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := rewrite.Outputs(asParsed, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := checkpoint.NewManager(filepath.Join(dir, id+ckptSuffix), 0)
	if err := mgr.Begin(asParsed); err != nil {
		t.Fatal(err)
	}
	for _, br := range cold.Bits[:5] {
		mgr.Record(br)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}

	// Also a queued job the dead daemon never started.
	id2 := "00000000000000bb"
	if err := saveSpec(dir, id2, &JobSpec{Netlist: eqnText(t, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := saveState(dir, &JobState{
		ID: id2, Status: StatusQueued, MaxAttempts: 3,
		SubmittedUnixNS: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	q, err := NewQueue(Config{Dir: dir, Recorder: rec, RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)

	final := waitStatus(t, q, id)
	if final.Status != StatusDone {
		t.Fatalf("replayed job ended %s: %s", final.Status, final.Error)
	}
	if final.Result.Polynomial != p.String() {
		t.Fatalf("replayed job recovered %s, want %s", final.Result.Polynomial, p)
	}
	if final.Result.ReusedCones != 5 {
		t.Fatalf("replayed job reused %d cones, want 5 from the checkpoint", final.Result.ReusedCones)
	}
	if final2 := waitStatus(t, q, id2); final2.Status != StatusDone {
		t.Fatalf("replayed queued job ended %s: %s", final2.Status, final2.Error)
	}
	if got := rec.Metrics().Counter("jobs_recovered").Value(); got != 2 {
		t.Fatalf("jobs_recovered=%d, want 2", got)
	}
}

func TestDrainInterruptsAndNextStartResumes(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQueue(Config{Dir: dir, CheckpointThrottle: 0, RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that the drain below lands mid-extraction.
	st, err := q.Submit(&JobSpec{Netlist: eqnText(t, 64), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to actually start and checkpoint at least one cone.
	ckpt := filepath.Join(dir, st.ID+ckptSuffix)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if snap, err := checkpoint.Load(ckpt); err == nil && snap.DoneCones() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job produced no checkpoint in 30s")
		}
		time.Sleep(time.Millisecond)
	}
	q.Drain(0) // no grace: cancel immediately

	after, err := q.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status == StatusDone {
		t.Skip("job finished before the drain landed; nothing to resume")
	}
	if after.Status != StatusQueued {
		t.Fatalf("interrupted job is %s, want queued", after.Status)
	}
	if after.Attempts != 0 {
		t.Fatalf("interruption charged an attempt: %d", after.Attempts)
	}

	// The "restarted daemon": same spool, fresh queue. The job resumes from
	// its checkpoint and completes with reused cones.
	q2, err := NewQueue(Config{Dir: dir, RetrySeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Drain(time.Second)
	final := waitStatus(t, q2, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("resumed job ended %s: %s", final.Status, final.Error)
	}
	if final.Result.ReusedCones < 1 {
		t.Fatal("resumed job reused no cones")
	}
	p, _ := polytab.Default(64)
	if final.Result.Polynomial != p.String() {
		t.Fatalf("resumed job recovered %s, want %s", final.Result.Polynomial, p)
	}
}

func TestSubmitPersistsBeforeAck(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQueue(Config{Dir: dir, RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(time.Second)
	st, err := q.Submit(&JobSpec{Netlist: eqnText(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// The durability contract: by the time Submit returns, both spool files
	// exist on disk.
	if _, err := os.Stat(filepath.Join(dir, st.ID+specSuffix)); err != nil {
		t.Fatalf("spec not on disk at ack time: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+stateSuffix)); err != nil {
		t.Fatalf("state not on disk at ack time: %v", err)
	}
}

func TestValidJobID(t *testing.T) {
	good, err := newJobID()
	if err != nil {
		t.Fatal(err)
	}
	if !validJobID(good) {
		t.Fatalf("generated ID %q rejected", good)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 16), "../../etc/passwd"} {
		if validJobID(bad) {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestDoneJobLeavesNoConeLog checks that a finished job's cone log leaves
// the spool once its done state is saved while a failed job keeps its log
// for diagnosis, and that a restart over a spool of done jobs, one still
// holding a log as after a crash between the two steps, serves their
// results, removes the leftover log and runs new work.
func TestDoneJobLeavesNoConeLog(t *testing.T) {
	dir := t.TempDir()
	ckpt := func(id string) string { return filepath.Join(dir, id+ckptSuffix) }
	q, err := NewQueue(Config{Dir: dir, MaxAttempts: 1, RetrySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done, err := q.Submit(&JobSpec{Netlist: eqnText(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := q.Submit(&JobSpec{Netlist: eqnText(t, 8), BudgetTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, q, done.ID); st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if st := waitStatus(t, q, failed.ID); st.Status != StatusFailed {
		t.Fatalf("budget-starved job ended %s", st.Status)
	}
	if _, err := os.Stat(ckpt(done.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("done job's cone log still in the spool: %v", err)
	}
	if _, err := checkpoint.Load(ckpt(failed.ID)); err != nil {
		t.Fatalf("failed job's cone log: %v", err)
	}
	q.Drain(time.Second)

	if err := os.MkdirAll(ckpt(done.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt(done.ID), "cones.gfrelog"), []byte("left over"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(Config{Dir: dir, RetrySeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Drain(time.Second)
	p, _ := polytab.Default(8)
	st, err := q2.Get(done.ID)
	if err != nil || st.Status != StatusDone || st.Result == nil || st.Result.Polynomial != p.String() {
		t.Fatalf("recovered done job: %+v, %v", st, err)
	}
	if _, err := os.Stat(ckpt(done.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("recovery kept a done job's leftover cone log: %v", err)
	}
	next, err := q2.Submit(&JobSpec{Netlist: eqnText(t, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, q2, next.ID); st.Status != StatusDone {
		t.Fatalf("job after recovery ended %s: %s", st.Status, st.Error)
	}
	if _, err := os.Stat(ckpt(next.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("done job's cone log still in the spool after recovery: %v", err)
	}
}
