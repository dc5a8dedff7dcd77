// Hub is the server-side registry that exposes the active pools of one
// gfred process to remote peers: one lease namespace over any number of
// concurrently sharded jobs. Grants carry the netlist body on a worker's
// first encounter with a content hash; renewals and submissions route by
// lease ID alone.
package shard

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// ErrPeerSuspended means the requesting peer's circuit breaker is open: its
// recent leases expired unfinished, so the hub withholds grants until a
// half-open probe succeeds. The peer should back off and retry.
var ErrPeerSuspended = errors.New("shard: peer suspended by circuit breaker")

// Hub multiplexes lease traffic across registered pools.
type Hub struct {
	mu       sync.Mutex
	entries  map[string]*hubEntry // key = job ID (or caller-chosen key)
	keys     []string             // registration order, for round-robin
	rr       int
	leaseIdx map[string]leaseRef // lease ID -> pool key + owning worker

	// Per-peer circuit breakers: a worker whose leases keep dying stops
	// receiving grants until a cooldown passes (then one half-open probe).
	bcfg     BreakerConfig
	breakers map[string]*breaker
	rec      *obs.Recorder
}

type hubEntry struct {
	pool *Pool
	eqn  string
}

// leaseRef remembers where a grant routes and which peer holds it.
type leaseRef struct {
	key    string
	worker string
}

// NewHub builds an empty registry.
func NewHub() *Hub {
	return &Hub{
		entries:  map[string]*hubEntry{},
		leaseIdx: map[string]leaseRef{},
		bcfg:     BreakerConfig{}.withDefaults(),
		breakers: map[string]*breaker{},
	}
}

// SetBreakerConfig replaces the per-peer breaker parameters; existing
// breaker state is reset. Call before serving traffic.
func (h *Hub) SetBreakerConfig(cfg BreakerConfig) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bcfg = cfg.withDefaults()
	h.breakers = map[string]*breaker{}
}

// SetRecorder attaches an observability recorder: breaker transitions emit
// events and move the hub_breaker_* metrics.
func (h *Hub) SetRecorder(rec *obs.Recorder) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rec = rec
}

// BreakerStates snapshots every known peer's breaker state, keyed by worker
// name ("closed", "open", "half-open") — surfaced on /metrics and asserted
// by tests.
func (h *Hub) BreakerStates() map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]string, len(h.breakers))
	for w, b := range h.breakers {
		out[w] = b.state
	}
	return out
}

// breakerLocked returns (creating if needed) a worker's breaker.
func (h *Hub) breakerLocked(worker string) *breaker {
	b := h.breakers[worker]
	if b == nil {
		b = newBreaker(h.bcfg)
		h.breakers[worker] = b
	}
	return b
}

// peerFailureLocked charges one dead lease to its owner's breaker.
func (h *Hub) peerFailureLocked(worker string, now time.Time) {
	if h.breakerLocked(worker).failure(now) {
		if h.rec != nil {
			h.rec.Metrics().Counter("hub_breaker_tripped").Inc()
			h.rec.Emit("breaker_open", worker, nil)
		}
		h.updateBreakerGaugeLocked()
	}
}

// peerSuccessLocked records a healthy submit, closing the breaker.
func (h *Hub) peerSuccessLocked(worker string) {
	b := h.breakerLocked(worker)
	wasOpen := b.state != breakerClosed
	b.success()
	if wasOpen {
		if h.rec != nil {
			h.rec.Metrics().Counter("hub_breaker_closed").Inc()
			h.rec.Emit("breaker_close", worker, nil)
		}
		h.updateBreakerGaugeLocked()
	}
}

func (h *Hub) updateBreakerGaugeLocked() {
	if h.rec == nil {
		return
	}
	open := int64(0)
	for _, b := range h.breakers {
		if b.state != breakerClosed {
			open++
		}
	}
	h.rec.Metrics().Gauge("hub_breakers_open").Set(open)
}

// sweepDeadLeases finds tracked leases that disappeared from their (still
// registered) pool without a successful submit — they expired or were
// stolen — and charges each to its owner's breaker. Unregistered pools are
// the job finishing, not the peer's fault.
func (h *Hub) sweepDeadLeases(now time.Time) {
	h.mu.Lock()
	type probe struct {
		id     string
		worker string
		pool   *Pool
	}
	var probes []probe
	for id, ref := range h.leaseIdx {
		e := h.entries[ref.key]
		if e == nil {
			delete(h.leaseIdx, id)
			continue
		}
		probes = append(probes, probe{id: id, worker: ref.worker, pool: e.pool})
	}
	h.mu.Unlock()
	var dead []probe
	for _, p := range probes {
		if !p.pool.LeaseLive(p.id) {
			dead = append(dead, p)
		}
	}
	if len(dead) == 0 {
		return
	}
	h.mu.Lock()
	for _, p := range dead {
		if _, still := h.leaseIdx[p.id]; !still {
			continue // a concurrent submit settled it
		}
		delete(h.leaseIdx, p.id)
		h.peerFailureLocked(p.worker, now)
	}
	h.mu.Unlock()
}

// Register exposes a pool under key, serializing n once so grants can ship
// the netlist to peers that lack its hash. Re-registering a key replaces
// the previous pool.
func (h *Hub) Register(key string, p *Pool, n *netlist.Netlist) error {
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.entries[key]; !ok {
		h.keys = append(h.keys, key)
	}
	h.entries[key] = &hubEntry{pool: p, eqn: buf.String()}
	return nil
}

// Unregister withdraws a pool; its outstanding leases fence at the hub.
func (h *Hub) Unregister(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.entries, key)
	for i, k := range h.keys {
		if k == key {
			h.keys = append(h.keys[:i], h.keys[i+1:]...)
			break
		}
	}
	for id, ref := range h.leaseIdx {
		if ref.key == key {
			delete(h.leaseIdx, id)
		}
	}
}

// Pools returns the number of registered pools.
func (h *Hub) Pools() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Lease round-robins over registered pools for leasable work. The grant's
// Netlist body is filled unless the worker's have list contains the pool's
// hash. Returns ErrNoWork when no pool has leasable cones, ErrPeerSuspended
// while the worker's circuit breaker is open.
func (h *Hub) Lease(worker string, max int, have []string) (*Grant, error) {
	now := time.Now()
	// Settle expired leases first so the requesting peer's own failures are
	// on its breaker before admission is decided.
	h.sweepDeadLeases(now)
	h.mu.Lock()
	if !h.breakerLocked(worker).allow(now) {
		h.mu.Unlock()
		return nil, ErrPeerSuspended
	}
	keys := append([]string(nil), h.keys...)
	start := h.rr
	h.rr++
	h.mu.Unlock()
	if len(keys) == 0 {
		return nil, ErrNoWork
	}
	haveSet := map[string]bool{}
	for _, hash := range have {
		haveSet[hash] = true
	}
	for i := 0; i < len(keys); i++ {
		key := keys[(start+i)%len(keys)]
		h.mu.Lock()
		e := h.entries[key]
		h.mu.Unlock()
		if e == nil {
			continue
		}
		g, err := e.pool.Lease(worker, max)
		if err != nil {
			continue // done or empty: try the next pool
		}
		h.mu.Lock()
		h.leaseIdx[g.Lease] = leaseRef{key: key, worker: worker}
		h.mu.Unlock()
		if !haveSet[g.Hash] {
			g.Netlist = e.eqn
		}
		return g, nil
	}
	// Nothing granted: a half-open probe stays armed for the next request
	// rather than counting an empty hub as a peer failure.
	h.mu.Lock()
	if b := h.breakers[worker]; b != nil && b.state == breakerHalfOpen {
		b.probing = false
	}
	h.mu.Unlock()
	return nil, ErrNoWork
}

// Renew routes a heartbeat to the lease's pool. Unknown leases (expired,
// or their pool unregistered) get ErrLeaseExpired.
func (h *Hub) Renew(leaseID string, epoch uint64) (time.Time, error) {
	p, _ := h.routeOf(leaseID)
	if p == nil {
		return time.Time{}, ErrLeaseExpired
	}
	deadline, err := p.Renew(leaseID, epoch)
	if errors.Is(err, ErrLeaseExpired) {
		h.settleDead(leaseID, time.Now())
	}
	return deadline, err
}

// Submit routes a result envelope to the lease's pool. An accepted submit
// counts as peer health (closing its breaker); a fenced one counts as a
// failure.
func (h *Hub) Submit(leaseID string, epoch uint64, results []rewrite.BitResult) (SubmitReply, error) {
	p, worker := h.routeOf(leaseID)
	if p == nil {
		return SubmitReply{Fenced: len(results)}, ErrLeaseExpired
	}
	reply, err := p.Submit(leaseID, epoch, results)
	switch {
	case errors.Is(err, ErrLeaseExpired):
		h.settleDead(leaseID, time.Now())
	case err == nil:
		h.mu.Lock()
		h.peerSuccessLocked(worker)
		h.mu.Unlock()
		if !p.LeaseLive(leaseID) {
			// Fully submitted: stop tracking so the sweep cannot
			// misattribute the closed lease as an expiry.
			h.mu.Lock()
			delete(h.leaseIdx, leaseID)
			h.mu.Unlock()
		}
	}
	return reply, err
}

// settleDead removes a fenced lease from tracking and charges its owner.
func (h *Hub) settleDead(leaseID string, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ref, ok := h.leaseIdx[leaseID]
	if !ok {
		return
	}
	delete(h.leaseIdx, leaseID)
	h.peerFailureLocked(ref.worker, now)
}

func (h *Hub) routeOf(leaseID string) (*Pool, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ref, ok := h.leaseIdx[leaseID]
	if !ok {
		return nil, ""
	}
	e := h.entries[ref.key]
	if e == nil {
		return nil, ref.worker
	}
	return e.pool, ref.worker
}
