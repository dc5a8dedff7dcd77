package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/shard"
)

// Queue failure classes; test with errors.Is.
var (
	// ErrQueueFull means the bounded queue is at capacity — the client
	// should shed load and retry later (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining means the daemon is shutting down and no longer accepts
	// jobs (HTTP 503).
	ErrDraining = errors.New("server: draining")
	// ErrUnknownJob means no job with that ID exists in the spool.
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrBadSpec tags submissions the queue refuses outright (empty or
	// unparseable netlist, unknown format) — these never enter the spool.
	ErrBadSpec = errors.New("server: bad job spec")
	// ErrDeadlineExceeded marks jobs whose wall-clock deadline expired
	// before they could finish; they fail permanently (retrying cannot beat
	// an absolute deadline).
	ErrDeadlineExceeded = errors.New("server: job deadline exceeded")
)

// LintRejection is returned by Submit when the preflight static analysis
// finds error-level defects in the uploaded netlist. It matches errors.Is
// for both ErrBadSpec (the job never entered the spool) and
// netlint.ErrFindings; the HTTP layer maps it to 422 with the findings in
// the response body so the client can see the cycle witness or the
// offending signals instead of a bare status line.
type LintRejection struct {
	Report *netlint.Report
}

func (e *LintRejection) Error() string {
	counts := e.Report.Counts()
	return fmt.Sprintf("server: netlist failed preflight lint with %d error finding(s)", counts[netlint.SevError])
}

func (e *LintRejection) Unwrap() []error { return []error{ErrBadSpec, netlint.ErrFindings} }

// Config parameterizes a Queue.
type Config struct {
	// Dir is the spool directory (created if missing).
	Dir string
	// Capacity bounds queued + running + backing-off jobs; submissions
	// beyond it are rejected with ErrQueueFull. Default 64.
	Capacity int
	// Workers is the number of concurrent extractions. Default 1 — cone
	// rewriting is already parallel inside a job.
	Workers int
	// MaxAttempts is the default per-job attempt bound (spec override
	// wins). Default 3.
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between attempts.
	// Defaults 1s / 2m.
	RetryBase, RetryCap time.Duration
	// CheckpointThrottle is passed to each job's checkpoint manager
	// (0 appends and fsyncs every finished cone to the job's cone log, one
	// small append per cone; <0 selects the package default).
	CheckpointThrottle time.Duration
	// Recorder receives queue metrics (jobs_* counters, queue_depth and
	// jobs_running gauges) and per-job telemetry. nil creates a fresh one —
	// the queue always records, because the SSE event stream and the live
	// dashboard are fed from it.
	Recorder *obs.Recorder
	// Journal is the bounded event buffer backing SSE replay. nil creates
	// one with obs.DefaultJournalCapacity. NewQueue attaches it to the
	// recorder itself; callers must NOT AttachSink the same journal, or
	// every event is delivered twice.
	Journal *obs.Journal
	// RetrySeed seeds the backoff jitter (0 = wall clock).
	RetrySeed int64
	// Hub, when non-nil, exposes sharded jobs' cone leases to remote gfred
	// peers over the /shards endpoints. Jobs with JobSpec.Shard == 0 never
	// touch it.
	Hub *shard.Hub
	// ShardLeaseTTL is the heartbeat deadline for sharded jobs' leases
	// (0 = shard.DefaultLeaseTTL).
	ShardLeaseTTL time.Duration
	// Policy is the tenant admission policy (zero value: one unlimited
	// default tenant).
	Policy TenantPolicy
	// AgingStep is the dispatcher's starvation-aging interval: a queued
	// job's effective priority improves one class per step waited
	// (0 = DefaultAgingStep).
	AgingStep time.Duration
	// Shed parameterizes the staged load-shed controller.
	Shed ShedConfig
}

type jobEntry struct {
	state *JobState
	// retryTimer re-enqueues a backed-off job; stopped on drain.
	retryTimer *time.Timer
	// bytes is the netlist size charged against the tenant's queued-bytes
	// quota until the job is terminal.
	bytes int64
	// dedupKey indexes q.dedup while this job leads a dedup group.
	dedupKey string
}

// Queue is a bounded durable job queue: every accepted job is on disk
// before Submit returns, and the spool replays across daemon restarts.
type Queue struct {
	cfg     Config
	rec     *obs.Recorder
	journal *obs.Journal

	runCtx    context.Context // cancelled to abort in-flight extractions
	cancelRun context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	draining bool
	rng      *rand.Rand
	seq      uint64 // next enqueue sequence (persisted per job for replay order)

	// sched is the weighted-fair priority dispatcher feeding the workers.
	sched *dispatcher
	// tenants holds per-tenant admission state (token buckets, counters).
	tenants map[string]*tenantState
	// shed is the staged overload controller.
	shed *shedder
	// dedup maps content-hash keys to in-flight leader job IDs; followers
	// of each leader wait in dedupWaiters until the leader is terminal.
	dedup       map[string]string
	dedupWaiter map[string][]string

	// shardStore is the cross-job content-addressed cone cache: a resubmitted
	// netlist (same content hash) reuses every completed cone outright.
	shardStore *shard.Store

	wg   sync.WaitGroup
	done chan struct{} // closed when Drain has fully finished
}

// NewQueue creates the spool directory, replays any jobs a previous daemon
// left behind, and starts the worker pool.
func NewQueue(cfg Config) (*Queue, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Second
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 2 * time.Minute
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	// The observability plane is always on: a recorder feeds metrics and the
	// journal buffers the event stream for SSE replay. An explicit Journal
	// (or one already adopted by the caller's recorder) is respected;
	// otherwise a default-capacity one is created and attached here.
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder()
	}
	if cfg.Journal == nil {
		cfg.Journal = cfg.Recorder.Journal()
	}
	if cfg.Journal == nil {
		cfg.Journal = obs.NewJournal(0)
	}
	if cfg.Recorder.Journal() != cfg.Journal {
		cfg.Recorder.AttachSink(cfg.Journal)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:         cfg,
		rec:         cfg.Recorder,
		journal:     cfg.Journal,
		runCtx:      ctx,
		cancelRun:   cancel,
		jobs:        make(map[string]*jobEntry),
		rng:         rand.New(rand.NewSource(seed)),
		done:        make(chan struct{}),
		shardStore:  shard.NewStore(0),
		seq:         1,
		sched:       newDispatcher(cfg.AgingStep, nil),
		tenants:     make(map[string]*tenantState),
		shed:        newShedder(cfg.Shed),
		dedup:       make(map[string]string),
		dedupWaiter: make(map[string][]string),
	}
	spooled, err := listSpool(cfg.Dir)
	if err != nil {
		cancel()
		return nil, err
	}
	if err := q.recover(spooled); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// recover replays the spool: terminal jobs are kept for status queries,
// interrupted ones (queued, running, or mid-backoff when the daemon died)
// are re-enqueued — a job that was running resumes from its checkpoint.
// Live jobs re-enqueue in their original enqueue-sequence order (not
// directory-scan order), so a restart never reorders a tenant's pipeline;
// dedup groups re-link, and followers of an already-finished leader
// complete immediately.
func (q *Queue) recover(ids []string) error {
	now := time.Now()
	var live []*jobEntry
	for _, id := range ids {
		st, err := loadState(q.cfg.Dir, id)
		if errors.Is(err, os.ErrNotExist) {
			// Crashed between spec and state write: the job was never
			// acknowledged, but the spec is durable — adopt it.
			st = &JobState{ID: id, Status: StatusQueued,
				MaxAttempts: q.cfg.MaxAttempts, SubmittedUnixNS: now.UnixNano()}
		} else if err != nil {
			// Quarantine: skip the damaged entry (leaving its files for the
			// operator) and keep replaying the rest of the spool — one
			// truncated state file must not cost the healthy jobs around it.
			q.counter("spool_corrupt").Inc()
			q.emit("spool_corrupt", id, nil)
			continue
		}
		entry := &jobEntry{state: st}
		q.jobs[id] = entry
		if st.Seq >= q.seq {
			q.seq = st.Seq + 1
		}
		if st.Status.Terminal() {
			if st.Status == StatusDone {
				// A daemon that died between saving the result and
				// removing the cone log left the log behind.
				os.RemoveAll(q.ckptDir(id)) //nolint:errcheck — best effort, retried next start
			}
			continue
		}
		live = append(live, entry)
	}
	// Original admission order: by persisted sequence, falling back to
	// submission time for pre-sequence spools.
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i].state, live[j].state
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.SubmittedUnixNS != b.SubmittedUnixNS {
			return a.SubmittedUnixNS < b.SubmittedUnixNS
		}
		return a.ID < b.ID
	})
	var fanout []*jobEntry
	for _, entry := range live {
		st := entry.state
		if st.Seq == 0 {
			st.Seq = q.seq
			q.seq++
		}
		st.Tenant = normalizeTenant(st.Tenant)
		st.Priority = clampPriority(st.Priority, DefaultPriority)
		spec, specErr := loadSpec(q.cfg.Dir, st.ID)
		if specErr == nil {
			entry.bytes = int64(len(spec.Netlist))
		}
		ts := q.tenantLocked(st.Tenant)
		ts.active++
		ts.queuedBytes += entry.bytes
		q.counter("jobs_recovered").Inc()
		q.gauge("queue_depth").Add(1)

		if st.DedupOf != "" {
			// Follower: re-attach to its leader if the leader is still
			// live; complete from the leader's result if it already
			// finished; run standalone if the leader is gone.
			if le, ok := q.jobs[st.DedupOf]; ok && !le.state.Status.Terminal() {
				q.dedupWaiter[st.DedupOf] = append(q.dedupWaiter[st.DedupOf], st.ID)
				continue
			} else if ok && le.state.Status.Terminal() {
				fanout = append(fanout, entry)
				continue
			}
			st.DedupOf = ""
			saveState(q.cfg.Dir, st) //nolint:errcheck — re-saved on next transition
		}
		if specErr == nil && spec.Dedup {
			key := dedupKey(spec)
			if _, taken := q.dedup[key]; !taken {
				q.dedup[key] = st.ID
				entry.dedupKey = key
			}
		}
		if st.Status == StatusRunning {
			// Interrupted mid-extraction; its checkpoint directory holds the
			// completed cones and the resumed run reuses them.
			st.Status = StatusQueued
			saveState(q.cfg.Dir, st) //nolint:errcheck — re-saved on next transition
		}
		if wait := time.Until(time.Unix(0, st.NextRetryUnixNS)); st.NextRetryUnixNS > 0 && wait > 0 {
			q.scheduleRetryLocked(entry, wait)
		} else {
			q.pushLocked(st)
		}
	}
	for _, entry := range fanout {
		leader := q.jobs[entry.state.DedupOf].state
		q.completeFollowerLocked(entry, leader)
	}
	q.updateShedLocked()
	return nil
}

// normalizeTenant maps empty or invalid names to DefaultTenant; Submit
// validates eagerly, this guards replayed spools.
func normalizeTenant(t string) string {
	if t == "" || !validTenantName(t) {
		return DefaultTenant
	}
	return t
}

// pushLocked hands a queued job to the dispatcher under its tenant's
// scheduling parameters; the caller holds q.mu.
func (q *Queue) pushLocked(st *JobState) {
	quota := q.cfg.Policy.Quota(st.Tenant)
	q.sched.Push(schedEntry{
		id: st.ID, tenant: st.Tenant, priority: st.Priority, seq: st.Seq,
	}, quota.Weight, quota.MaxRunning)
}

// Submit validates, persists and enqueues a job. The spec is on disk before
// Submit returns — an accepted job survives any subsequent crash.
//
// Admission applies, in order: lint preflight, drain state, the staged
// load-shed controller, queue capacity, then the tenant's token-bucket and
// resource quotas. With JobSpec.Dedup set, an identical in-flight
// submission turns this job into a follower of that leader: accepted and
// durable, but it never runs — it completes when the leader does (or
// instantly, when the leader already succeeded).
func (q *Queue) Submit(spec *JobSpec) (*JobState, error) {
	if strings.TrimSpace(spec.Netlist) == "" {
		return nil, fmt.Errorf("%w: empty netlist", ErrBadSpec)
	}
	switch spec.Format {
	case "", "eqn", "blif", "verilog":
	default:
		return nil, fmt.Errorf("%w: unknown netlist format %q", ErrBadSpec, spec.Format)
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !validTenantName(tenant) {
		return nil, fmt.Errorf("%w: invalid tenant name %q", ErrBadSpec, spec.Tenant)
	}
	if spec.DeadlineMS < 0 {
		return nil, fmt.Errorf("%w: negative deadline_ms", ErrBadSpec)
	}
	if spec.Priority < 0 || spec.Priority > numPriorities {
		return nil, fmt.Errorf("%w: priority %d out of range 1..%d", ErrBadSpec, spec.Priority, numPriorities)
	}
	// Lint eagerly so defective uploads fail the submission (HTTP 422 with
	// the findings in the body), not the first extraction attempt. The
	// source-level rules diagnose cycles and multi-driven signals with line
	// numbers the parser's own errors lack, and a clean report implies the
	// netlist parses — AnalyzeSource runs the real reader first.
	format := spec.Format
	if format == "" {
		format = "eqn"
	}
	name := spec.Name
	if name == "" {
		name = "submit"
	}
	rep := netlint.AnalyzeSource([]byte(spec.Netlist), name, format, netlint.Options{RequireMultiplier: true})
	if rep.HasErrors() {
		return nil, &LintRejection{Report: rep}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.counter("jobs_rejected").Inc()
		return nil, ErrDraining
	}
	quota := q.cfg.Policy.Quota(tenant)
	priority := clampPriority(spec.Priority, clampPriority(quota.Priority, DefaultPriority))
	// A hard-full queue is ErrQueueFull regardless of shed stage; the staged
	// controller owns the soft watermarks below capacity.
	if q.activeLocked() >= q.cfg.Capacity {
		q.counter("jobs_rejected").Inc()
		q.tenantLocked(tenant).rejected++
		q.updateShedLocked()
		return nil, ErrQueueFull
	}
	// Overload next: a shedding queue rejects before any quota is charged.
	if stage := q.updateShedLocked(); stage > 0 {
		if err := q.shed.admitStage(stage, spec, priority); err != nil {
			q.counter("jobs_rejected").Inc()
			q.counter("jobs_shed").Inc()
			q.tenantLocked(tenant).rejected++
			return nil, err
		}
	}
	now := time.Now()
	size := int64(len(spec.Netlist))
	ts := q.tenantLocked(tenant)
	if err := ts.admit(now, size); err != nil {
		q.counter("jobs_rejected").Inc()
		q.counter("jobs_quota_rejected").Inc()
		q.tenantCounter("tenant_rejected", tenant).Inc()
		return nil, err
	}
	// Admitted: any failure past this point must return the charge.
	id, err := newJobID()
	if err != nil {
		ts.release(size)
		return nil, err
	}
	maxAttempts := spec.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = q.cfg.MaxAttempts
	}
	st := &JobState{
		ID: id, Name: spec.Name, Status: StatusQueued,
		MaxAttempts: maxAttempts, SubmittedUnixNS: now.UnixNano(),
		Tenant: tenant, Priority: priority, Seq: q.seq,
	}
	if spec.DeadlineMS > 0 {
		st.DeadlineUnixNS = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond).UnixNano()
	}
	// Dedup: an identical in-flight submission makes this job a follower; a
	// leader that already succeeded completes the follower instantly from
	// its result (a failed leader is forgotten, so identical content can be
	// retried fresh).
	var key, leaderID string
	var doneLeader *JobState
	if spec.Dedup {
		key = dedupKey(spec)
		if lid, ok := q.dedup[key]; ok {
			if le, live := q.jobs[lid]; live {
				switch {
				case !le.state.Status.Terminal():
					leaderID = lid
					st.DedupOf = lid
				case le.state.Status == StatusDone:
					doneLeader = le.state
					st.DedupOf = lid
				}
			}
		}
	}
	// Durability order: spec first, then state, then the in-memory enqueue.
	sp := *spec
	sp.Tenant = tenant
	if err := saveSpec(q.cfg.Dir, id, &sp); err != nil {
		ts.release(size)
		return nil, err
	}
	if err := saveState(q.cfg.Dir, st); err != nil {
		ts.release(size)
		return nil, err
	}
	q.seq++
	entry := &jobEntry{state: st, bytes: size}
	q.jobs[id] = entry
	switch {
	case doneLeader != nil:
		q.counter("jobs_deduped").Inc()
		q.completeFollowerLocked(entry, doneLeader)
	case leaderID != "":
		q.dedupWaiter[leaderID] = append(q.dedupWaiter[leaderID], id)
		q.counter("jobs_deduped").Inc()
	default:
		if key != "" {
			q.dedup[key] = id
			entry.dedupKey = key
		}
		q.pushLocked(st)
	}
	q.counter("jobs_submitted").Inc()
	q.tenantCounter("tenant_submitted", tenant).Inc()
	q.gauge("queue_depth").Add(1)
	q.updateShedLocked()
	q.rec.EmitJob(id, "job_submitted", tenant, map[string]int64{
		"priority": int64(priority), "seq": int64(st.Seq),
	})
	cp := *st
	return &cp, nil
}

// BatchItem is one outcome of SubmitBatch, positionally matching the input.
type BatchItem struct {
	State *JobState
	Err   error
}

// SubmitBatch admits specs as one batch with content-hash dedup forced: N
// identical submissions admit a single extraction, whose result fans out
// to every accepted job when the leader finishes. Outcomes are per-item —
// one rejection (quota, capacity, lint) does not fail the rest.
func (q *Queue) SubmitBatch(specs []*JobSpec) []BatchItem {
	out := make([]BatchItem, len(specs))
	for i, spec := range specs {
		sp := *spec
		sp.Dedup = true
		st, err := q.Submit(&sp)
		out[i] = BatchItem{State: st, Err: err}
	}
	return out
}

// Get returns a copy of the job's current state.
func (q *Queue) Get(id string) (*JobState, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	entry, ok := q.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	cp := *entry.state
	return &cp, nil
}

// List returns a copy of every known job state, newest first.
func (q *Queue) List() []*JobState {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*JobState, 0, len(q.jobs))
	for _, e := range q.jobs {
		cp := *e.state
		out = append(out, &cp)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].SubmittedUnixNS > out[j-1].SubmittedUnixNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Active counts the jobs not yet in a terminal state.
func (q *Queue) Active() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.activeLocked()
}

func (q *Queue) activeLocked() int {
	n := 0
	for _, e := range q.jobs {
		if !e.state.Status.Terminal() {
			n++
		}
	}
	return n
}

// Draining reports whether the queue has stopped accepting jobs.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Drain shuts the queue down gracefully: intake stops immediately, then
// in-flight and queued jobs get up to grace to finish; whatever is still
// unfinished is cancelled cooperatively — the governed cancellation path
// syncs each job's checkpoint, so the next daemon start resumes it.
// Idempotent: a repeated Drain (second SIGTERM) just waits for the first.
func (q *Queue) Drain(grace time.Duration) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.draining = true
	for _, e := range q.jobs {
		// Backed-off retries won't get to run; hand them to the next start.
		if e.retryTimer != nil {
			e.retryTimer.Stop()
			e.retryTimer = nil
		}
	}
	q.mu.Unlock()
	q.emit("drain_begin", "", map[string]int64{"grace_ms": grace.Milliseconds()})

	deadline := time.Now().Add(grace)
	for q.Active() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	q.cancelRun()
	q.sched.Close()
	q.wg.Wait()
	q.emit("drain_end", "", map[string]int64{"active_left": int64(q.Active())})
	close(q.done)
}

// Done returns a channel closed once Drain has fully finished — the signal
// event-stream handlers use to end their streams instead of holding client
// connections open across shutdown.
func (q *Queue) Done() <-chan struct{} { return q.done }

// Journal returns the bounded event buffer the queue's telemetry flows
// through; SSE handlers subscribe and replay from it.
func (q *Queue) Journal() *obs.Journal { return q.journal }

// Recorder returns the queue's recorder (never nil once NewQueue returns).
func (q *Queue) Recorder() *obs.Recorder { return q.rec }

// Hub returns the shard hub remote peers lease cones from (nil when the
// daemon runs without one).
func (q *Queue) Hub() *shard.Hub { return q.cfg.Hub }

// RetryAfterHint estimates how long a client rejected with ErrQueueFull
// should wait before resubmitting, from the actual queue state: if every
// active job is parked in retry backoff, nothing can finish before the
// earliest backoff expires, so that expiry (plus a grace second) is the
// honest hint; otherwise jobs are actively draining and the hint scales
// with how many must finish per worker before a slot frees.
func (q *Queue) RetryAfterHint() time.Duration {
	const (
		floor = time.Second
		ceil  = 5 * time.Minute
	)
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	active, parked := 0, 0
	var earliest time.Duration = -1
	for _, e := range q.jobs {
		st := e.state
		if st.Status.Terminal() {
			continue
		}
		active++
		if st.Status == StatusQueued && st.NextRetryUnixNS > 0 {
			if wait := time.Unix(0, st.NextRetryUnixNS).Sub(now); wait > 0 {
				parked++
				if earliest < 0 || wait < earliest {
					earliest = wait
				}
			}
		}
	}
	var hint time.Duration
	switch {
	case active == 0:
		hint = floor
	case parked == active && earliest > 0:
		hint = earliest + floor
	default:
		perWorker := (active - parked + q.cfg.Workers - 1) / q.cfg.Workers
		hint = floor * time.Duration(perWorker)
	}
	if hint < floor {
		hint = floor
	}
	if hint > ceil {
		hint = ceil
	}
	return hint
}

// worker pulls dispatched jobs until the queue closes. The dispatcher
// charges the popped entry's tenant a running slot; it is returned here no
// matter how the attempt ends.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		e, ok := q.sched.Next()
		if !ok {
			return
		}
		if q.runCtx.Err() == nil {
			q.runJob(e.id)
		}
		// Drained mid-loop: the job stays queued for the next start.
		q.sched.Release(e.tenant)
	}
}

// scheduleRetryLocked arms the re-enqueue timer for a backed-off job; the
// caller holds q.mu.
func (q *Queue) scheduleRetryLocked(entry *jobEntry, wait time.Duration) {
	entry.retryTimer = time.AfterFunc(wait, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.draining || entry.retryTimer == nil {
			return
		}
		entry.retryTimer = nil
		q.pushLocked(entry.state)
	})
}

// runJob executes one attempt of one job.
func (q *Queue) runJob(id string) {
	q.mu.Lock()
	entry, ok := q.jobs[id]
	if !ok || entry.state.Status != StatusQueued {
		q.mu.Unlock()
		return
	}
	st := entry.state
	if st.DeadlineUnixNS > 0 && time.Now().UnixNano() >= st.DeadlineUnixNS {
		// Expired while queued: fail without burning a worker on it.
		st.Status = StatusFailed
		st.Error = ErrDeadlineExceeded.Error()
		st.FinishedUnixNS = time.Now().UnixNano()
		q.counter("jobs_deadline_expired").Inc()
		q.finishAccountingLocked(entry, StatusFailed)
		q.settleDedupLocked(entry)
		q.updateShedLocked()
		saveState(q.cfg.Dir, st) //nolint:errcheck — terminal state, best effort
		q.emit("job_failed", id, map[string]int64{"attempt": 0, "deadline": 1})
		q.mu.Unlock()
		return
	}
	st.Status = StatusRunning
	st.Attempts++
	st.StartedUnixNS = time.Now().UnixNano()
	st.NextRetryUnixNS = 0
	saveState(q.cfg.Dir, st) //nolint:errcheck — worst case the attempt repeats
	q.gauge("jobs_running").Add(1)
	q.counter("extractions_started").Inc()
	deadlineNS := st.DeadlineUnixNS
	q.mu.Unlock()
	q.emit("job_start", id, map[string]int64{"attempt": int64(st.Attempts)})

	result, err := q.extract(id, deadlineNS)

	q.mu.Lock()
	defer q.mu.Unlock()
	q.gauge("jobs_running").Add(-1)
	now := time.Now()
	deadlineHit := err != nil && deadlineNS > 0 &&
		(errors.Is(err, context.DeadlineExceeded) || now.UnixNano() >= deadlineNS)
	switch {
	case err == nil:
		st.Status = StatusDone
		st.Result = result
		st.Error = ""
		st.FinishedUnixNS = now.UnixNano()
		q.finishAccountingLocked(entry, StatusDone)
		q.emit("job_done", id, map[string]int64{"attempt": int64(st.Attempts)})

	case q.runCtx.Err() != nil:
		// Drain cancelled the attempt, not the job: back to queued so the
		// next daemon start resumes from the synced checkpoint. The attempt
		// is not charged against the budget.
		st.Status = StatusQueued
		st.Attempts--
		q.emit("job_interrupted", id, nil)

	case deadlineHit:
		// The job's own deadline expired mid-extraction: the governed
		// context already cancelled the rewrite (and released shard leases
		// via pool shutdown); no retry can beat an absolute deadline.
		st.Status = StatusFailed
		st.Error = ErrDeadlineExceeded.Error() + ": " + err.Error()
		st.FinishedUnixNS = now.UnixNano()
		q.counter("jobs_deadline_expired").Inc()
		q.finishAccountingLocked(entry, StatusFailed)
		q.emit("job_failed", id, map[string]int64{"attempt": int64(st.Attempts), "deadline": 1})

	case permanentError(err) || st.Attempts >= st.MaxAttempts:
		st.Status = StatusFailed
		st.Error = err.Error()
		st.FinishedUnixNS = now.UnixNano()
		q.finishAccountingLocked(entry, StatusFailed)
		q.emit("job_failed", id, map[string]int64{"attempt": int64(st.Attempts)})

	default:
		// Retryable: exponential backoff with jitter. A corrupt checkpoint
		// is retryable exactly once the snapshot is wiped — re-running on
		// top of it would fail identically forever.
		if errors.Is(err, checkpoint.ErrCheckpoint) {
			os.RemoveAll(q.ckptDir(id)) //nolint:errcheck — next attempt starts cold either way
		}
		wait := backoff(q.cfg.RetryBase, q.cfg.RetryCap, st.Attempts, q.rng.Float64())
		st.Status = StatusQueued
		st.Error = err.Error()
		st.NextRetryUnixNS = now.Add(wait).UnixNano()
		q.counter("jobs_retried").Inc()
		q.emit("job_retry", id, map[string]int64{
			"attempt": int64(st.Attempts), "backoff_ms": wait.Milliseconds(),
		})
		if !q.draining {
			q.scheduleRetryLocked(entry, wait)
		}
	}
	if st.Status.Terminal() {
		q.settleDedupLocked(entry)
		q.updateShedLocked()
	}
	if err := saveState(q.cfg.Dir, st); err == nil && st.Status == StatusDone {
		// The saved result supersedes the cone log; failed jobs keep theirs
		// for diagnosis.
		os.RemoveAll(q.ckptDir(id)) //nolint:errcheck — recover removes a leftover
	}
}

// finishAccountingLocked books one job's terminal transition: the done or
// failed counter, the queue-depth gauge, and the tenant's quota charge.
func (q *Queue) finishAccountingLocked(entry *jobEntry, status JobStatus) {
	if status == StatusDone {
		q.counter("jobs_done").Inc()
		q.tenantCounter("tenant_done", entry.state.Tenant).Inc()
	} else {
		q.counter("jobs_failed").Inc()
		q.tenantCounter("tenant_failed", entry.state.Tenant).Inc()
	}
	q.gauge("queue_depth").Add(-1)
	q.tenantLocked(entry.state.Tenant).release(entry.bytes)
}

// settleDedupLocked settles a terminal job's dedup bookkeeping: every
// follower completes with a copy of its outcome. A successful leader keeps
// its content key so identical later submissions reuse the result without
// extracting; a failed leader releases the key so the content can be
// retried fresh.
func (q *Queue) settleDedupLocked(entry *jobEntry) {
	st := entry.state
	if entry.dedupKey != "" && st.Status != StatusDone {
		if q.dedup[entry.dedupKey] == st.ID {
			delete(q.dedup, entry.dedupKey)
		}
		entry.dedupKey = ""
	}
	waiters := q.dedupWaiter[st.ID]
	delete(q.dedupWaiter, st.ID)
	for _, fid := range waiters {
		if fe := q.jobs[fid]; fe != nil && !fe.state.Status.Terminal() {
			q.completeFollowerLocked(fe, st)
		}
	}
}

// completeFollowerLocked finishes a dedup follower from its leader's
// terminal state: same status, same error, a copy of the result.
func (q *Queue) completeFollowerLocked(entry *jobEntry, leader *JobState) {
	st := entry.state
	st.Status = leader.Status
	st.Error = leader.Error
	st.Result = nil
	if leader.Result != nil {
		r := *leader.Result
		st.Result = &r
	}
	st.FinishedUnixNS = time.Now().UnixNano()
	saveState(q.cfg.Dir, st) //nolint:errcheck — terminal state, best effort
	q.finishAccountingLocked(entry, st.Status)
	ev := "job_done"
	if st.Status == StatusFailed {
		ev = "job_failed"
	}
	q.rec.EmitJob(st.ID, ev, st.Tenant, map[string]int64{"dedup": 1})
}

// ckptDir is the job's checkpoint directory inside the spool.
func (q *Queue) ckptDir(id string) string {
	return filepath.Join(q.cfg.Dir, id+ckptSuffix)
}

// extract runs one governed, checkpointed extraction attempt. A nonzero
// deadlineNS is the job's absolute completion deadline: it propagates as a
// context deadline through the governor (cancelling every rewrite worker),
// caps the per-cone deadline, and clamps sharded jobs' lease TTLs so remote
// workers holding leases past expiry lose them within one heartbeat.
func (q *Queue) extract(id string, deadlineNS int64) (*JobResult, error) {
	spec, err := loadSpec(q.cfg.Dir, id)
	if err != nil {
		return nil, err
	}
	n, err := parseNetlist(spec, id)
	if err != nil {
		return nil, err
	}
	runCtx := q.runCtx
	coneDeadline := time.Duration(spec.ConeDeadlineMS) * time.Millisecond
	leaseTTL := q.cfg.ShardLeaseTTL
	if deadlineNS > 0 {
		deadline := time.Unix(0, deadlineNS)
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(runCtx, deadline)
		defer cancel()
		remaining := time.Until(deadline)
		if remaining < time.Millisecond {
			remaining = time.Millisecond
		}
		if coneDeadline <= 0 || coneDeadline > remaining {
			coneDeadline = remaining
		}
		if leaseTTL <= 0 {
			leaseTTL = shard.DefaultLeaseTTL
		}
		if min := 10 * time.Millisecond; leaseTTL > remaining {
			leaseTTL = remaining
			if leaseTTL < min {
				leaseTTL = min
			}
		}
	}
	opts := extract.Options{
		Threads:      spec.Threads,
		PrefixA:      spec.PrefixA,
		PrefixB:      spec.PrefixB,
		SkipVerify:   spec.SkipVerify,
		Tolerate:     spec.Tolerate,
		BudgetTerms:  spec.BudgetTerms,
		ConeDeadline: coneDeadline,
		// Re-lint at run time: a job replayed from an old spool never went
		// through submit-time lint, and the cost predictor fills unset
		// budget/deadline knobs either way.
		Preflight: true,
		Ctx:       runCtx,
		// Per-attempt child recorder: every rewrite/extract event and span of
		// this attempt carries the job ID, so SSE consumers and the live
		// dashboard can follow one job through the shared journal.
		Recorder: q.rec.JobRecorder(id),
		// Resume is unconditional: with no snapshot on disk it is a cold
		// start, and after a crash or drain it reuses the completed cones.
		Checkpoint: checkpoint.NewManager(q.ckptDir(id), q.cfg.CheckpointThrottle),
		Resume:     true,
	}
	start := time.Now()
	var (
		st     extract.Stages
		sstats shard.Stats
	)
	if spec.Shard != 0 {
		// Lease-scheduled rewriting: local workers plus any peers reached
		// through the hub. The job ID keys the hub registration so peers'
		// telemetry can be correlated with this job.
		st.Rewrite = shard.Rewriter(shard.ExtractOptions{
			Workers: spec.Shard,
			Hub:     q.cfg.Hub, HubKey: id,
			Store:    q.shardStore,
			LeaseTTL: leaseTTL,
		}, &sstats)
	}
	ext, _, _, err := extract.Run(n, opts, st)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Polynomial:     ext.P.String(),
		M:              ext.M,
		Verified:       ext.Verified,
		ReusedCones:    ext.Rewrite.Reused,
		Retries:        ext.Rewrite.Retries,
		LeasesExpired:  sstats.Expired,
		LeasesStolen:   sstats.Stolen,
		RuntimeSeconds: time.Since(start).Seconds(),
	}, nil
}

// parseNetlist builds the netlist from a spec.
func parseNetlist(spec *JobSpec, name string) (*netlist.Netlist, error) {
	if spec.Name != "" {
		name = spec.Name
	}
	format := spec.Format
	if format == "" {
		format = "eqn"
	}
	return netlist.Read(strings.NewReader(spec.Netlist), format, name)
}

// permanentError classifies failures no retry can fix: the input itself is
// wrong (unparseable, not a field multiplier, tampered beyond tolerance),
// so re-running burns cycles to reach the same verdict.
func permanentError(err error) bool {
	return errors.Is(err, netlist.ErrParse) ||
		errors.Is(err, netlint.ErrFindings) ||
		errors.Is(err, extract.ErrNotMultiplier) ||
		errors.Is(err, extract.ErrNotIrreducible) ||
		errors.Is(err, extract.ErrMismatch) ||
		errors.Is(err, extract.ErrBadPorts) ||
		errors.Is(err, extract.ErrConsensus)
}

// dedupKey is the content-hash grouping identical submissions: the netlist
// source plus every knob that changes the extraction's outcome. Tenant,
// priority, deadline, and name are deliberately excluded — two tenants
// submitting the same work share one extraction.
func dedupKey(spec *JobSpec) string {
	return checkpoint.HashSubmission(spec.Netlist, spec.Format,
		spec.PrefixA, spec.PrefixB,
		strconv.Itoa(spec.BudgetTerms),
		strconv.FormatInt(spec.ConeDeadlineMS, 10),
		strconv.Itoa(spec.Tolerate),
		strconv.FormatBool(spec.SkipVerify),
		strconv.Itoa(spec.Shard),
	)
}

// metricSafe maps a tenant name into the Prometheus metric-name alphabet
// ([a-zA-Z0-9_]): dots and dashes become underscores. Tenant names are
// already restricted to those four character classes by validTenantName.
func metricSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

// tenantCounter is a per-tenant labelled counter, flattened into the metric
// name (the obs plane is label-free by design).
func (q *Queue) tenantCounter(name, tenant string) *obs.Counter {
	return q.counter(name + "_" + metricSafe(tenant))
}

// counter/gauge/emit are nil-safe metric helpers. Lifecycle events carry the
// job ID in both Name (display) and Job (stream filtering) fields.
func (q *Queue) counter(name string) *obs.Counter { return q.rec.Metrics().Counter(name) }
func (q *Queue) gauge(name string) *obs.Gauge     { return q.rec.Metrics().Gauge(name) }
func (q *Queue) emit(ev, id string, v map[string]int64) {
	if id == "" {
		q.rec.Emit(ev, "", v)
		return
	}
	q.rec.EmitJob(id, ev, id, v)
}
