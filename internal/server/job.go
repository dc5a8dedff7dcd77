// Package server implements the gfred extraction service: an HTTP API over
// a bounded, durable job queue. Jobs are spooled to disk before they are
// acknowledged, run under the resource governor with per-job retry and
// exponential backoff, checkpoint their per-cone progress, and survive a
// daemon restart — the spool is replayed on startup and interrupted runs
// resume from their checkpoints instead of starting over.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// JobStatus is the lifecycle state of a spooled job.
type JobStatus string

const (
	// StatusQueued: accepted and persisted, waiting for a worker (also the
	// state of a retry waiting out its backoff).
	StatusQueued JobStatus = "queued"
	// StatusRunning: a worker is extracting. A job found in this state
	// during spool replay was interrupted by a daemon crash and is
	// re-enqueued to resume from its checkpoint.
	StatusRunning JobStatus = "running"
	// StatusDone: extraction succeeded; Result holds P(x).
	StatusDone JobStatus = "done"
	// StatusFailed: extraction failed permanently (unretryable error or
	// attempts exhausted); Error explains why.
	StatusFailed JobStatus = "failed"
)

// Terminal reports whether the status is an end state.
func (s JobStatus) Terminal() bool { return s == StatusDone || s == StatusFailed }

// JobSpec is what a client submits: the netlist and the extraction knobs.
type JobSpec struct {
	// Netlist is the circuit text; Format selects the parser (eqn, blif,
	// verilog; default eqn).
	Netlist string `json:"netlist"`
	Format  string `json:"format,omitempty"`
	// Name labels the job in results and logs (default: the job ID).
	Name string `json:"name,omitempty"`

	// Extraction options, mirroring the gfre CLI flags.
	Threads        int    `json:"threads,omitempty"`
	PrefixA        string `json:"prefix_a,omitempty"`
	PrefixB        string `json:"prefix_b,omitempty"`
	BudgetTerms    int    `json:"budget_terms,omitempty"`
	ConeDeadlineMS int64  `json:"cone_deadline_ms,omitempty"`
	Tolerate       int    `json:"tolerate,omitempty"`
	SkipVerify     bool   `json:"skip_verify,omitempty"`

	// MaxAttempts bounds how often the job is tried before it fails
	// permanently (0 = the queue's default).
	MaxAttempts int `json:"max_attempts,omitempty"`

	// Tenant attributes the job for admission control and fair scheduling.
	// The HTTP layer fills it from the X-Tenant header or API key; empty
	// means DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class, 1 (highest) to 9 (lowest);
	// 0 = the tenant's default.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is a wall-clock completion budget measured from admission.
	// When it expires, the job is cancelled everywhere — queued jobs fail
	// at dispatch, running extractions are cancelled through the governor
	// context, and sharded jobs' lease TTLs are capped to the remaining
	// budget so remote workers stop within one TTL. 0 = no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Dedup opts the job into content-hash deduplication: if an identical
	// submission (same netlist and extraction knobs) is already in flight,
	// this job becomes a follower that shares the leader's single
	// extraction and completes when it does. POST /jobs/batch forces it.
	Dedup bool `json:"dedup,omitempty"`

	// Shard routes the job through the lease-based sharded extractor with
	// this many local workers (negative = none: remote peers via the
	// daemon's hub do all the rewriting). 0 keeps the monolithic path.
	Shard int `json:"shard,omitempty"`
}

// JobResult is the payload of a completed extraction.
type JobResult struct {
	Polynomial     string  `json:"polynomial"`
	M              int     `json:"m"`
	Verified       bool    `json:"verified"`
	ReusedCones    int     `json:"reused_cones,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	LeasesExpired  int     `json:"leases_expired,omitempty"`
	LeasesStolen   int     `json:"leases_stolen,omitempty"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
}

// JobState is the durable, client-visible record of a job.
type JobState struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Status   JobStatus `json:"status"`
	Attempts int       `json:"attempts"`
	// MaxAttempts is the resolved retry bound (spec value or queue default).
	MaxAttempts int `json:"max_attempts"`

	// Tenant and Priority are the resolved admission attributes; Seq is the
	// global enqueue sequence — spool replay re-enqueues in Seq order so a
	// restart never reorders a tenant's pipeline.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	// DeadlineUnixNS is the absolute completion deadline (0 = none).
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
	// DedupOf names the leader job whose extraction this job shares; a
	// follower never runs itself, it completes when its leader does.
	DedupOf string `json:"dedup_of,omitempty"`

	SubmittedUnixNS int64 `json:"submitted_unix_ns"`
	StartedUnixNS   int64 `json:"started_unix_ns,omitempty"`
	FinishedUnixNS  int64 `json:"finished_unix_ns,omitempty"`
	// NextRetryUnixNS is when a backed-off retry becomes runnable.
	NextRetryUnixNS int64 `json:"next_retry_unix_ns,omitempty"`

	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// Spool file layout: <id>.job holds the immutable JobSpec, <id>.state the
// mutable JobState (atomically replaced on every transition), and <id>.ckpt/
// the extraction checkpoint directory, removed once the job's done state is
// saved.
const (
	specSuffix  = ".job"
	stateSuffix = ".state"
	ckptSuffix  = ".ckpt"
)

// newJobID returns a 16-hex-digit random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// validJobID guards spool paths against traversal: IDs are exactly the
// strings newJobID produces.
func validJobID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// writeFileAtomic persists data under path via temp file + fsync + rename,
// the same discipline the checkpoint package uses: a crash leaves either
// the old file or the new one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// saveSpec persists the immutable job spec (written once, at submission,
// BEFORE the job is acknowledged to the client).
func saveSpec(dir, id string, spec *JobSpec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, id+specSuffix), data)
}

// loadSpec reads a job spec from the spool.
func loadSpec(dir, id string) (*JobSpec, error) {
	data, err := os.ReadFile(filepath.Join(dir, id+specSuffix))
	if err != nil {
		return nil, err
	}
	spec := &JobSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("spool %s: corrupt spec: %w", id, err)
	}
	return spec, nil
}

// saveState atomically replaces the job's state file.
func saveState(dir string, st *JobState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, st.ID+stateSuffix), data)
}

// loadState reads a job state from the spool.
func loadState(dir, id string) (*JobState, error) {
	data, err := os.ReadFile(filepath.Join(dir, id+stateSuffix))
	if err != nil {
		return nil, err
	}
	st := &JobState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("spool %s: corrupt state: %w", id, err)
	}
	return st, nil
}

// listSpool returns the IDs of every job with a spec file in dir.
func listSpool(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if id, ok := strings.CutSuffix(name, specSuffix); ok && validJobID(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// backoff computes the wait before retry number attempt (1-based first
// retry), exponential with full jitter: base·2^(attempt-1), capped, then
// scaled by a uniform factor in [0.5, 1.0] so restarting fleets do not
// retry in lockstep.
func backoff(base, cap time.Duration, attempt int, unit float64) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if cap <= 0 {
		cap = 2 * time.Minute
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return time.Duration(float64(d) * (0.5 + 0.5*unit))
}
