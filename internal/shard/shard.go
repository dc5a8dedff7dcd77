// Package shard turns one extraction into a pool of independently failable
// cone leases — the distributed form of the paper's Theorem 2, which makes
// every output-bit cone an isolated work unit.
//
// A Pool owns the per-cone state machine of a single netlist (identified by
// its checkpoint content hash). Workers — local goroutines or remote gfred
// peers speaking the /shards HTTP endpoints — pull leases (a batch of cone
// IDs plus a deadline and an epoch), heartbeat them with Renew, compute the
// cones with a rewrite.Worker each, and push the results back with Submit.
// Local workers hand over the in-process results; only the HTTP boundary
// (Client, DecodeResultEnvelope) packs and unpacks them. Robustness
// invariants:
//
//   - a lease that misses its heartbeat expires: its unfinished cones are
//     re-queued with capped-exponential backoff and the pool's epoch fence
//     advances, so a zombie worker's late Submit is rejected, not
//     double-counted;
//   - work stealing splits the remaining cones of a straggling lease onto a
//     fresh epoch when an idle worker asks for work, so one slow or dead
//     worker cannot serialize the tail of the run;
//   - results are keyed (content hash, bit) in a content-addressed Store
//     with single-flight semantics per pool — a cone is held by at most one
//     live epoch, duplicate submissions are served from cache, and a second
//     job over the same netlist reuses the first job's cones outright;
//   - worker loss degrades, never hangs: cones lost to expiry are retried
//     indefinitely (worker death is not the cone's fault), cones that FAIL
//     under the governor (budget/timeout) are bounded by MaxAttempts and
//     surface as failed bits that consensus extraction can vote around.
//
// The chaos harness (diffcheck.KindChaos / gffuzz -chaos) exists to prove
// these invariants: it kills workers, force-expires leases, duplicates,
// delays and reorders submissions, and injects transport faults, then
// asserts the exact planted P(x) is recovered with Stats().DoubleAccepts
// still zero.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Sentinel errors; use errors.Is against them.
var (
	// ErrNoWork means no cone is leasable right now (all leased out or
	// parked in backoff); the worker should retry shortly.
	ErrNoWork = errors.New("shard: no leasable cones right now")
	// ErrDone means every cone reached a terminal state; workers exit.
	ErrDone = errors.New("shard: extraction complete")
	// ErrLeaseExpired fences a zombie: the lease (or the submitted epoch)
	// is no longer current, so renewals and results are rejected.
	ErrLeaseExpired = errors.New("shard: lease expired or superseded")
)

// Defaults for the zero Config.
const (
	DefaultLeaseTTL   = 10 * time.Second
	DefaultMaxCones   = 8
	DefaultAttempts   = 3
	defaultBackoff    = 50 * time.Millisecond
	defaultBackoffCap = 2 * time.Second
)

// Config parameterizes a Pool.
type Config struct {
	// Hash is the netlist content hash (checkpoint.HashNetlist) every
	// result is keyed on. Required.
	Hash string
	// Order lists every output cone's bit ID, 0..len(Order)-1, once, in
	// the order pending cones are leased: rewrite.ConeOrder, deepest cone
	// first, as rewrite.Outputs feeds its workers. Required.
	Order []int

	// LeaseTTL is the heartbeat deadline: a lease not renewed within it
	// expires and its cones re-queue. 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxConesPerLease bounds the batch size of one grant. 0 selects
	// DefaultMaxCones.
	MaxConesPerLease int
	// MaxAttempts bounds how often a cone that FAILED under the governor
	// (budget/timeout/error — not expiry, not cancellation) is re-leased
	// before it is marked permanently failed. 0 selects DefaultAttempts.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped-exponential re-queue delay
	// of expired and failed cones.
	BackoffBase, BackoffCap time.Duration
	// StealAge is the minimum age of a lease before an idle worker may
	// split off its unfinished cones. 0 selects LeaseTTL/2.
	StealAge time.Duration

	// BudgetTerms / ConeDeadline ride on every grant so remote peers
	// govern their cones identically to local workers.
	BudgetTerms  int
	ConeDeadline time.Duration

	// Store is the content-addressed result cache, shareable across pools
	// (and hence jobs). nil allocates a private one.
	Store *Store
	// Prior seeds completed cones from a restored checkpoint: StatusOK
	// entries within range are terminal before any lease is granted and
	// count into Stats().Reused.
	Prior []rewrite.BitResult
	// OnResult observes every newly terminal cone (completed, cached or
	// permanently failed) exactly once — the checkpoint hook. Not invoked
	// for Prior cones, which the caller already has. Called without the
	// pool lock held.
	OnResult func(rewrite.BitResult)

	// Recorder receives lease lifecycle events and metrics; nil disables.
	Recorder *obs.Recorder
	// Seed makes the backoff jitter deterministic; 0 selects 1.
	Seed int64
	// Clock is a test seam; nil selects time.Now.
	Clock func() time.Time
}

// Grant is one lease as handed to a worker (and the /shards/lease wire
// reply; Netlist and PoolKey are filled by the Hub for remote peers).
type Grant struct {
	Lease          string `json:"lease"`
	Epoch          uint64 `json:"epoch"`
	Hash           string `json:"hash"`
	Cones          []int  `json:"cones"`
	DeadlineUnixNS int64  `json:"deadline_unix_ns"`
	BudgetTerms    int    `json:"budget_terms,omitempty"`
	ConeDeadlineMS int64  `json:"cone_deadline_ms,omitempty"`
	// Netlist carries the canonical EQN text when the worker's Have list
	// missed Hash; empty otherwise.
	Netlist string `json:"netlist,omitempty"`
}

// SubmitReply classifies the cones of one result envelope.
type SubmitReply struct {
	Accepted  int `json:"accepted"`
	Duplicate int `json:"duplicate"` // cone already terminal; served from cache
	Fenced    int `json:"fenced"`    // stale epoch — zombie result rejected
	Failed    int `json:"failed"`    // governor-failed cone recorded (re-queued or exhausted)
}

// Stats is a snapshot of the pool's robustness counters.
type Stats struct {
	Granted   int // leases handed out
	Renewed   int // successful heartbeats
	Expired   int // leases that missed their heartbeat
	Stolen    int // leases split by work stealing
	Accepted  int // cone results accepted
	Duplicate int // duplicate submissions served from cache
	Fenced    int // zombie results rejected by the epoch fence
	Requeued  int // cone re-queues (expiry, steal, governor failure)
	Reused    int // cones seeded from Prior (checkpoint restore)
	Cached    int // cones served from the cross-job Store
	Failed    int // cones permanently failed (MaxAttempts governor failures)
	// DoubleAccepts counts results accepted for an already-terminal cone.
	// It is structurally impossible and asserted zero by the chaos
	// harness; a nonzero value means the epoch fence is broken.
	DoubleAccepts int
}

const (
	conePending = iota
	coneLeased
	coneDone
	coneFailed
)

type coneState struct {
	state     int
	epoch     uint64    // epoch of the owning lease (leased) or the accepting epoch (done)
	lease     string    // owning lease ID when leased
	failures  int       // governor failures (bounded by MaxAttempts)
	requeues  int       // expiry/steal re-queues (unbounded; drives backoff only)
	notBefore time.Time // backoff gate for re-leasing
}

type lease struct {
	id       string
	epoch    uint64
	worker   string
	cones    []int // cones still owned (submitted/stolen ones are removed)
	deadline time.Time
	granted  time.Time
}

// Pool schedules the cones of one extraction across failable workers.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	cones   []coneState
	results []rewrite.BitResult // terminal results, indexed by bit
	leases  map[string]*lease
	fence   map[string]uint64 // expired/closed lease -> its dead epoch
	epoch   uint64
	open    int // cones not yet terminal
	stats   Stats
	rng     *rand.Rand
	donec   chan struct{}
	stopc   chan struct{}
	stopped bool

	met *poolMetrics
}

type poolMetrics struct {
	rec       *obs.Recorder
	granted   *obs.Counter
	renewed   *obs.Counter
	expired   *obs.Counter
	stolen    *obs.Counter
	accepted  *obs.Counter
	fenced    *obs.Counter
	duplicate *obs.Counter
	requeued  *obs.Counter
	cached    *obs.Counter
	active    *obs.Gauge
	pending   *obs.Gauge
}

func newPoolMetrics(rec *obs.Recorder) *poolMetrics {
	if rec == nil {
		return nil
	}
	m := rec.Metrics()
	return &poolMetrics{
		rec:       rec,
		granted:   m.Counter("leases_granted"),
		renewed:   m.Counter("leases_renewed"),
		expired:   m.Counter("leases_expired"),
		stolen:    m.Counter("leases_stolen"),
		accepted:  m.Counter("shard_results_accepted"),
		fenced:    m.Counter("shard_results_fenced"),
		duplicate: m.Counter("shard_results_duplicate"),
		requeued:  m.Counter("shard_cones_requeued"),
		cached:    m.Counter("shard_cones_cached"),
		active:    m.Gauge("leases_active"),
		pending:   m.Gauge("shard_cones_pending"),
	}
}

// NewPool builds the scheduler for one netlist and starts its expiry
// monitor. Close it (or drain it with Wait) when done.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Hash == "" {
		return nil, errors.New("shard: Config.Hash is required")
	}
	bits := len(cfg.Order)
	if bits == 0 {
		return nil, errors.New("shard: Config.Order is required")
	}
	seen := make([]bool, bits)
	for _, bit := range cfg.Order {
		if bit < 0 || bit >= bits || seen[bit] {
			return nil, fmt.Errorf("shard: Config.Order is not a permutation of the bits 0..%d", bits-1)
		}
		seen[bit] = true
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxConesPerLease <= 0 {
		cfg.MaxConesPerLease = DefaultMaxCones
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = defaultBackoff
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = defaultBackoffCap
	}
	if cfg.StealAge <= 0 {
		cfg.StealAge = cfg.LeaseTTL / 2
	}
	if cfg.Store == nil {
		cfg.Store = NewStore(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Pool{
		cfg:     cfg,
		cones:   make([]coneState, bits),
		results: make([]rewrite.BitResult, bits),
		leases:  map[string]*lease{},
		fence:   map[string]uint64{},
		open:    bits,
		rng:     rand.New(rand.NewSource(seed)),
		donec:   make(chan struct{}),
		stopc:   make(chan struct{}),
		met:     newPoolMetrics(cfg.Recorder),
	}

	// Seed terminal cones before any lease can be granted: checkpointed
	// results first, then the cross-job content-addressed cache.
	var seeded []rewrite.BitResult
	p.mu.Lock()
	for _, br := range cfg.Prior {
		if br.Status != rewrite.StatusOK || br.Bit < 0 || br.Bit >= bits {
			continue
		}
		if p.cones[br.Bit].state == coneDone {
			continue
		}
		p.finishLocked(br.Bit, br, 0)
		p.stats.Reused++
		cfg.Store.Put(cfg.Hash, br.Bit, br)
	}
	for bit := 0; bit < bits; bit++ {
		if p.cones[bit].state != conePending {
			continue
		}
		if br, ok := cfg.Store.Get(cfg.Hash, bit); ok {
			p.finishLocked(bit, br, 0)
			p.stats.Cached++
			p.met.incCached()
			seeded = append(seeded, br)
		}
	}
	p.met.setPending(int64(p.open))
	p.mu.Unlock()
	if cfg.OnResult != nil {
		for _, br := range seeded {
			cfg.OnResult(br)
		}
	}

	go p.expiryLoop()
	return p, nil
}

func (m *poolMetrics) incCached() {
	if m != nil {
		m.cached.Inc()
	}
}

func (m *poolMetrics) setPending(v int64) {
	if m != nil {
		m.pending.Set(v)
	}
}

// finishLocked marks bit terminal-done with br accepted under epoch.
func (p *Pool) finishLocked(bit int, br rewrite.BitResult, epoch uint64) {
	cs := &p.cones[bit]
	cs.state = coneDone
	cs.epoch = epoch
	cs.lease = ""
	p.results[bit] = br
	p.open--
	if p.open == 0 {
		close(p.donec)
	}
}

// failLocked marks bit permanently failed after exhausting MaxAttempts.
func (p *Pool) failLocked(bit int, br rewrite.BitResult, epoch uint64) {
	cs := &p.cones[bit]
	cs.state = coneFailed
	cs.epoch = epoch
	cs.lease = ""
	p.results[bit] = br
	p.stats.Failed++
	p.open--
	if p.open == 0 {
		close(p.donec)
	}
}

// backoffLocked computes the capped-exponential re-queue delay with jitter
// for a cone on its n-th retry (n >= 1).
func (p *Pool) backoffLocked(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := p.cfg.BackoffBase
	for i := 1; i < n && d < p.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffCap {
		d = p.cfg.BackoffCap
	}
	// Jitter into [0.5d, d]: desynchronizes re-queues without ever
	// shortening the base delay below half.
	return time.Duration(float64(d) * (0.5 + 0.5*p.rng.Float64()))
}

// requeueLocked returns bit to the pending queue after expiry, steal or a
// retryable governor failure.
func (p *Pool) requeueLocked(bit int, now time.Time) {
	cs := &p.cones[bit]
	cs.state = conePending
	cs.lease = ""
	cs.requeues++
	cs.notBefore = now.Add(p.backoffLocked(cs.requeues + cs.failures))
	p.stats.Requeued++
	if p.met != nil {
		p.met.requeued.Inc()
	}
}

// Lease hands out up to max pending cones to worker. When nothing is
// pending but a straggling lease holds several cones, the tail of that
// lease is split off onto a fresh epoch (work stealing). Returns ErrDone
// when every cone is terminal and ErrNoWork when the worker should retry
// after a short sleep.
func (p *Pool) Lease(worker string, max int) (*Grant, error) {
	if max <= 0 || max > p.cfg.MaxConesPerLease {
		max = p.cfg.MaxConesPerLease
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == 0 {
		return nil, ErrDone
	}
	now := p.cfg.Clock()
	p.expireLocked(now)

	var batch []int
	for _, bit := range p.cfg.Order {
		if len(batch) == max {
			break
		}
		cs := &p.cones[bit]
		if cs.state == conePending && !now.Before(cs.notBefore) {
			batch = append(batch, bit)
		}
	}
	stolen := false
	if len(batch) == 0 {
		batch = p.stealLocked(now, max)
		stolen = len(batch) > 0
	}
	if len(batch) == 0 {
		return nil, ErrNoWork
	}

	p.epoch++
	l := &lease{
		id:       newLeaseID(),
		epoch:    p.epoch,
		worker:   worker,
		cones:    batch,
		deadline: now.Add(p.cfg.LeaseTTL),
		granted:  now,
	}
	p.leases[l.id] = l
	for _, bit := range batch {
		cs := &p.cones[bit]
		cs.state = coneLeased
		cs.epoch = l.epoch
		cs.lease = l.id
	}
	p.stats.Granted++
	if stolen {
		p.stats.Stolen++
	}
	p.emitLeaseLocked(l, stolen)
	return &Grant{
		Lease: l.id, Epoch: l.epoch, Hash: p.cfg.Hash,
		Cones:          append([]int(nil), batch...),
		DeadlineUnixNS: l.deadline.UnixNano(),
		BudgetTerms:    p.cfg.BudgetTerms,
		ConeDeadlineMS: p.cfg.ConeDeadline.Milliseconds(),
	}, nil
}

// emitLeaseLocked records the grant in telemetry: one lease_grant (or
// lease_steal on the thief's side) plus per-cone cone_leased events that
// drive the gftop lease heat grid.
func (p *Pool) emitLeaseLocked(l *lease, stolen bool) {
	if p.met == nil {
		return
	}
	p.met.granted.Inc()
	p.met.active.Set(int64(len(p.leases)))
	ev := obs.EvLeaseGrant
	if stolen {
		ev = obs.EvLeaseSteal
		p.met.stolen.Inc()
	}
	p.met.rec.Emit(ev, l.id, map[string]int64{
		"epoch": int64(l.epoch), "cones": int64(len(l.cones)),
	})
	for _, bit := range l.cones {
		p.met.rec.Emit(obs.EvConeLeased, l.id, map[string]int64{
			"bit": int64(bit), "epoch": int64(l.epoch),
		})
	}
}

// stealLocked splits the second half of the oldest splittable lease onto
// the caller. Only leases past StealAge with at least two cones qualify —
// a lease down to its last cone cannot be split, only expired.
func (p *Pool) stealLocked(now time.Time, max int) []int {
	var victim *lease
	for _, l := range p.leases {
		if len(l.cones) < 2 || now.Sub(l.granted) < p.cfg.StealAge {
			continue
		}
		if victim == nil || l.granted.Before(victim.granted) ||
			(l.granted.Equal(victim.granted) && l.id < victim.id) {
			victim = l
		}
	}
	if victim == nil {
		return nil
	}
	half := len(victim.cones) / 2
	if half > max {
		half = max
	}
	stolen := append([]int(nil), victim.cones[len(victim.cones)-half:]...)
	victim.cones = victim.cones[:len(victim.cones)-half]
	if p.met != nil {
		p.met.rec.Emit(obs.EvLeaseSteal, victim.id, map[string]int64{
			"epoch": int64(victim.epoch), "cones": int64(len(stolen)), "victim": 1,
		})
	}
	return stolen
}

// Renew extends the lease's heartbeat deadline. A stale epoch or an
// unknown (expired) lease gets ErrLeaseExpired — the worker must abandon
// the lease's remaining cones.
func (p *Pool) Renew(leaseID string, epoch uint64) (time.Time, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Clock()
	p.expireLocked(now)
	l, ok := p.leases[leaseID]
	if !ok || l.epoch != epoch {
		return time.Time{}, ErrLeaseExpired
	}
	l.deadline = now.Add(p.cfg.LeaseTTL)
	p.stats.Renewed++
	if p.met != nil {
		p.met.renewed.Inc()
	}
	return l.deadline, nil
}

// Submit records a batch of cone results for a lease. Every cone is
// classified independently (accepted / duplicate / fenced / failed); the
// call errors only when the envelope itself is unusable — then no cone of
// it is applied — or the whole lease is fenced. Submissions are
// idempotent: re-sending an accepted envelope yields duplicates, never
// double counts.
func (p *Pool) Submit(leaseID string, epoch uint64, results []rewrite.BitResult) (SubmitReply, error) {
	var (
		reply    SubmitReply
		finished []rewrite.BitResult
	)
	for _, br := range results {
		if br.Bit < 0 || br.Bit >= len(p.cfg.Order) {
			return reply, fmt.Errorf("shard: result bit %d out of range [0,%d)", br.Bit, len(p.cfg.Order))
		}
	}
	p.mu.Lock()
	now := p.cfg.Clock()
	p.expireLocked(now)
	l, live := p.leases[leaseID]
	if live && l.epoch != epoch {
		live = false
	}
	// A retired lease (fully submitted or expired) keeps its epoch in the
	// fence map, so re-sent envelopes classify as duplicates, not zombies.
	knownEpoch := live || p.fence[leaseID] == epoch
	for _, br := range results {
		cs := &p.cones[br.Bit]
		switch {
		case cs.state == coneDone || cs.state == coneFailed:
			// Already terminal: duplicate when the same epoch re-sends its
			// own accepted result, never a second accept.
			if knownEpoch && cs.epoch == epoch && cs.state == coneDone {
				reply.Duplicate++
				p.stats.Duplicate++
				if p.met != nil {
					p.met.duplicate.Inc()
				}
			} else {
				reply.Fenced++
				p.stats.Fenced++
				if p.met != nil {
					p.met.fenced.Inc()
				}
			}
		case !live, cs.lease != leaseID, cs.epoch != epoch:
			// Zombie: the cone moved on to another epoch (expiry or steal).
			reply.Fenced++
			p.stats.Fenced++
			if p.met != nil {
				p.met.fenced.Inc()
			}
		default:
			l.cones = removeCone(l.cones, br.Bit)
			if br.Status == rewrite.StatusOK {
				if cs.state == coneDone {
					p.stats.DoubleAccepts++ // unreachable; chaos asserts 0
				}
				p.finishLocked(br.Bit, br, epoch)
				p.cfg.Store.Put(p.cfg.Hash, br.Bit, br)
				reply.Accepted++
				p.stats.Accepted++
				if p.met != nil {
					p.met.accepted.Inc()
				}
				finished = append(finished, br)
			} else {
				// Governor failure: bounded retries, then the cone is data
				// for consensus extraction rather than a hang.
				reply.Failed++
				cs.failures++
				if cs.failures >= p.cfg.MaxAttempts {
					p.failLocked(br.Bit, br, epoch)
					finished = append(finished, br)
				} else {
					p.requeueLocked(br.Bit, now)
				}
			}
		}
	}
	if live && len(l.cones) == 0 {
		p.closeLeaseLocked(l)
	}
	p.met.setPending(int64(p.open))
	if p.met != nil {
		p.met.rec.Emit(obs.EvShardResult, leaseID, map[string]int64{
			"accepted": int64(reply.Accepted), "duplicate": int64(reply.Duplicate),
			"fenced": int64(reply.Fenced), "failed": int64(reply.Failed),
		})
	}
	p.mu.Unlock()

	if p.cfg.OnResult != nil {
		for _, br := range finished {
			p.cfg.OnResult(br)
		}
	}
	if !live && reply.Accepted == 0 && reply.Duplicate == 0 && len(results) > 0 {
		return reply, ErrLeaseExpired
	}
	return reply, nil
}

func removeCone(cones []int, bit int) []int {
	for i, b := range cones {
		if b == bit {
			return append(cones[:i], cones[i+1:]...)
		}
	}
	return cones
}

// closeLeaseLocked retires a fully-submitted lease; its ID stays in the
// fence map so late duplicates classify as duplicates, not unknown leases.
func (p *Pool) closeLeaseLocked(l *lease) {
	delete(p.leases, l.id)
	p.fence[l.id] = l.epoch
	if p.met != nil {
		p.met.active.Set(int64(len(p.leases)))
	}
}

// expireLocked re-queues the cones of every lease past its heartbeat
// deadline and advances the fence.
func (p *Pool) expireLocked(now time.Time) {
	for _, l := range p.leases {
		if now.Before(l.deadline) {
			continue
		}
		for _, bit := range l.cones {
			cs := &p.cones[bit]
			if cs.state == coneLeased && cs.lease == l.id {
				p.requeueLocked(bit, now)
			}
		}
		delete(p.leases, l.id)
		p.fence[l.id] = l.epoch
		p.stats.Expired++
		if p.met != nil {
			p.met.expired.Inc()
			p.met.active.Set(int64(len(p.leases)))
			p.met.rec.Emit(obs.EvLeaseExpire, l.id, map[string]int64{
				"epoch": int64(l.epoch), "cones": int64(len(l.cones)),
			})
		}
	}
}

// LeaseLive reports whether a lease is still current (granted and neither
// fully submitted, expired, nor stolen away). The hub's per-peer circuit
// breakers use it to classify a tracked lease that disappeared without a
// successful submit as a peer failure.
func (p *Pool) LeaseLive(leaseID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.leases[leaseID]
	return ok
}

// ExpireLease force-expires one lease immediately — the chaos harness's
// handle for "the network partitioned this worker away".
func (p *Pool) ExpireLease(leaseID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = p.cfg.Clock()
	p.expireLocked(l.deadline)
	return true
}

// expiryLoop drives expiry for pools whose workers stop calling in (a dead
// worker never triggers the on-demand checks).
func (p *Pool) expiryLoop() {
	tick := p.cfg.LeaseTTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.donec:
			return
		case <-p.stopc:
			return
		case <-t.C:
			p.mu.Lock()
			p.expireLocked(p.cfg.Clock())
			p.mu.Unlock()
		}
	}
}

// Wait blocks until every cone is terminal or ctx ends.
func (p *Pool) Wait(ctx context.Context) error {
	select {
	case <-p.donec:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Finished reports whether every cone reached a terminal state.
func (p *Pool) Finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.open == 0
}

// Close stops the expiry monitor and fences every outstanding lease — a
// closed pool (job finished, cancelled, or past its deadline) must not hold
// grants alive, and late submits against them classify as fenced. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.stopc)
	for _, l := range p.leases {
		delete(p.leases, l.id)
		p.fence[l.id] = l.epoch
	}
	if p.met != nil {
		p.met.active.Set(0)
	}
}

// Stats snapshots the robustness counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Result assembles the per-bit outcomes into a rewrite.Result. Cones still
// pending (Wait cancelled) come back as cancelled bits, so the consensus
// path can vote over whatever completed.
func (p *Pool) Result() *rewrite.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	rw := &rewrite.Result{
		Bits:   make([]rewrite.BitResult, len(p.cfg.Order)),
		Reused: p.stats.Reused + p.stats.Cached,
	}
	for bit := 0; bit < len(p.cfg.Order); bit++ {
		switch p.cones[bit].state {
		case coneDone, coneFailed:
			rw.Bits[bit] = p.results[bit]
		default:
			rw.Bits[bit] = rewrite.BitResult{
				BitStats: rewrite.BitStats{Bit: bit},
				Status:   rewrite.StatusCancelled,
				Err:      "shard: cone never completed",
			}
		}
		if rw.Bits[bit].Status.Failed() {
			rw.Failed = append(rw.Failed, bit)
		}
	}
	sort.Ints(rw.Failed)
	return rw
}
