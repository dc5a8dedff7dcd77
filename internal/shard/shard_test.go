package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// testHash is a syntactically valid content hash for pool-only tests.
const testHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// okResult fabricates a completed cone with a small distinct expression.
func okResult(bit int) rewrite.BitResult {
	p := anf.NewPoly()
	p.Toggle(anf.NewMono(anf.Var(bit + 1)))
	return rewrite.BitResult{
		BitStats: rewrite.BitStats{Bit: bit, Name: fmt.Sprintf("z%d", bit), FinalTerms: p.Len()},
		Expr:     p,
		Status:   rewrite.StatusOK,
	}
}

func failResult(bit int) rewrite.BitResult {
	return rewrite.BitResult{
		BitStats: rewrite.BitStats{Bit: bit, Name: fmt.Sprintf("z%d", bit)},
		Status:   rewrite.StatusBudget,
		Err:      "budget exceeded",
	}
}

func pack(brs ...rewrite.BitResult) []rewrite.BitResult { return brs }

// bitOrder is the lease order 0..bits-1.
func bitOrder(bits int) []int {
	order := make([]int, bits)
	for bit := range order {
		order[bit] = bit
	}
	return order
}

func newTestPool(t *testing.T, bits int, clk *fakeClock, mut func(*Config)) *Pool {
	t.Helper()
	cfg := Config{Hash: testHash, Order: bitOrder(bits), LeaseTTL: time.Second, Seed: 7}
	if clk != nil {
		cfg.Clock = clk.Now
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPoolLeaseSubmitLifecycle(t *testing.T) {
	p := newTestPool(t, 4, nil, nil)
	g, err := p.Lease("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cones) != 4 || g.Epoch != 1 || g.Hash != testHash {
		t.Fatalf("unexpected grant %+v", g)
	}
	var brs []rewrite.BitResult
	for _, bit := range g.Cones {
		brs = append(brs, okResult(bit))
	}
	reply, err := p.Submit(g.Lease, g.Epoch, pack(brs...))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 4 {
		t.Fatalf("accepted %d, want 4: %+v", reply.Accepted, reply)
	}
	if !p.Finished() {
		t.Fatal("pool should be finished")
	}
	if _, err := p.Lease("w2", 0); !errors.Is(err, ErrDone) {
		t.Fatalf("lease after completion: %v, want ErrDone", err)
	}
	rw := p.Result()
	if len(rw.Failed) != 0 || len(rw.Bits) != 4 {
		t.Fatalf("result: failed=%v bits=%d", rw.Failed, len(rw.Bits))
	}
}

func TestResubmitSameEnvelopeIsDuplicate(t *testing.T) {
	// Idempotency: a worker whose first submission's *response* was lost
	// re-sends the identical envelope and must see duplicates, not fences,
	// and the pool must not double-count.
	p := newTestPool(t, 2, nil, nil)
	g, _ := p.Lease("w1", 0)
	env := pack(okResult(g.Cones[0]), okResult(g.Cones[1]))
	if _, err := p.Submit(g.Lease, g.Epoch, env); err != nil {
		t.Fatal(err)
	}
	reply, err := p.Submit(g.Lease, g.Epoch, env)
	if err != nil {
		t.Fatalf("re-send errored: %v", err)
	}
	if reply.Duplicate != 2 || reply.Accepted != 0 || reply.Fenced != 0 {
		t.Fatalf("re-send classified %+v, want 2 duplicates", reply)
	}
	st := p.Stats()
	if st.Accepted != 2 || st.DoubleAccepts != 0 {
		t.Fatalf("stats %+v: want Accepted=2 DoubleAccepts=0", st)
	}
}

// TestSubmitRejectsWholeEnvelopeWithBadBit: one out-of-range bit makes the
// pool reject the envelope before any cone of it is applied, so nothing is
// accepted, stored or reported, and the lease stays live for a good
// resubmission.
func TestSubmitRejectsWholeEnvelopeWithBadBit(t *testing.T) {
	var seen []int
	p := newTestPool(t, 2, nil, func(c *Config) {
		c.OnResult = func(br rewrite.BitResult) { seen = append(seen, br.Bit) }
	})
	g, err := p.Lease("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Submit(g.Lease, g.Epoch, pack(okResult(0), okResult(7)))
	if err == nil || errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("envelope with bit 7 on a 2-bit pool: err = %v, want an out-of-range error", err)
	}
	if reply != (SubmitReply{}) || p.Stats().Accepted != 0 || len(seen) != 0 {
		t.Fatalf("half-applied envelope: reply %+v, stats %+v, OnResult saw %v", reply, p.Stats(), seen)
	}
	if _, ok := p.cfg.Store.Get(testHash, 0); ok {
		t.Fatal("a rejected envelope stored bit 0")
	}
	if !p.LeaseLive(g.Lease) {
		t.Fatal("a rejected envelope must leave the lease live")
	}
	reply, err = p.Submit(g.Lease, g.Epoch, pack(okResult(0), okResult(1)))
	if err != nil || reply.Accepted != 2 || len(seen) != 2 || !p.Finished() {
		t.Fatalf("resubmission: reply %+v, err %v, OnResult saw %v", reply, err, seen)
	}
}

func TestLeaseExpiryRequeuesAndFencesZombie(t *testing.T) {
	clk := newFakeClock()
	p := newTestPool(t, 2, clk, nil)
	g1, err := p.Lease("zombie", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Miss the heartbeat; the cones must re-queue for another worker once
	// the backoff gate passes.
	clk.Advance(2 * time.Second)
	if _, err := p.Renew(g1.Lease, g1.Epoch); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("renew after expiry: %v, want ErrLeaseExpired", err)
	}
	clk.Advance(3 * time.Second) // past any requeue backoff
	g2, err := p.Lease("healthy", 0)
	if err != nil {
		t.Fatalf("re-lease after expiry: %v", err)
	}
	if g2.Epoch <= g1.Epoch {
		t.Fatalf("epoch must advance: %d then %d", g1.Epoch, g2.Epoch)
	}

	// The zombie's late submission must be fenced in its entirety.
	reply, err := p.Submit(g1.Lease, g1.Epoch, pack(okResult(g1.Cones[0]), okResult(g1.Cones[1])))
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("zombie submit: err=%v, want ErrLeaseExpired", err)
	}
	if reply.Fenced != 2 || reply.Accepted != 0 {
		t.Fatalf("zombie submit classified %+v, want 2 fenced", reply)
	}

	// The healthy worker completes; nothing was double-counted.
	if _, err := p.Submit(g2.Lease, g2.Epoch, pack(okResult(g2.Cones[0]), okResult(g2.Cones[1]))); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Accepted != 2 || st.Fenced != 2 || st.Expired != 1 || st.DoubleAccepts != 0 {
		t.Fatalf("stats %+v", st)
	}
	if !p.Finished() {
		t.Fatal("pool should be finished")
	}
}

func TestZombieSubmitAfterConeRecomputed(t *testing.T) {
	// The hardest fence case: the cone is already terminal under a NEWER
	// epoch when the zombie's submission lands. It must classify as fenced
	// (the zombie's epoch never owned the accepted result).
	clk := newFakeClock()
	p := newTestPool(t, 1, clk, nil)
	g1, _ := p.Lease("zombie", 0)
	clk.Advance(2 * time.Second)
	p.expiryTick()
	clk.Advance(3 * time.Second)
	g2, err := p.Lease("healthy", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(g2.Lease, g2.Epoch, pack(okResult(0))); err != nil {
		t.Fatal(err)
	}
	reply, err := p.Submit(g1.Lease, g1.Epoch, pack(okResult(0)))
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("zombie submit err=%v", err)
	}
	if reply.Fenced != 1 || reply.Duplicate != 0 {
		t.Fatalf("zombie submit classified %+v, want 1 fenced", reply)
	}
	if st := p.Stats(); st.DoubleAccepts != 0 || st.Accepted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWorkStealingSplitsStraggler(t *testing.T) {
	clk := newFakeClock()
	p := newTestPool(t, 8, clk, func(c *Config) {
		c.StealAge = 100 * time.Millisecond
	})
	g1, err := p.Lease("slow", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Cones) != 8 {
		t.Fatalf("first lease got %d cones, want all 8", len(g1.Cones))
	}
	clk.Advance(200 * time.Millisecond) // past StealAge, before LeaseTTL
	g2, err := p.Lease("thief", 0)
	if err != nil {
		t.Fatalf("steal failed: %v", err)
	}
	if len(g2.Cones) != 4 {
		t.Fatalf("stole %d cones, want half (4)", len(g2.Cones))
	}
	if p.Stats().Stolen != 1 {
		t.Fatalf("stats %+v, want Stolen=1", p.Stats())
	}

	// The victim's submissions for its REMAINING cones still land; its
	// submissions for the stolen ones are fenced.
	keep, stolen := g1.Cones[0], g2.Cones[0]
	reply, err := p.Submit(g1.Lease, g1.Epoch, pack(okResult(keep), okResult(stolen)))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 1 || reply.Fenced != 1 {
		t.Fatalf("victim submit classified %+v, want 1 accepted + 1 fenced", reply)
	}
}

func TestGovernorFailureBoundedByMaxAttempts(t *testing.T) {
	clk := newFakeClock()
	p := newTestPool(t, 1, clk, func(c *Config) {
		c.MaxAttempts = 2
		c.BackoffBase = 10 * time.Millisecond
		c.BackoffCap = 20 * time.Millisecond
	})
	submits := 0
	for !p.Finished() {
		g, err := p.Lease("w", 0)
		if errors.Is(err, ErrNoWork) {
			clk.Advance(50 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		reply, err := p.Submit(g.Lease, g.Epoch, pack(failResult(0)))
		if err != nil {
			t.Fatal(err)
		}
		if reply.Failed != 1 {
			t.Fatalf("submit %d classified %+v", submits+1, reply)
		}
		if submits++; submits > 2 {
			t.Fatalf("still retrying after %d governor failures, want MaxAttempts=2", submits)
		}
	}
	if submits != 2 {
		t.Fatalf("cone failed permanently after %d attempts, want 2", submits)
	}
	rw := p.Result()
	if len(rw.Failed) != 1 || rw.Failed[0] != 0 {
		t.Fatalf("result failed=%v, want [0]", rw.Failed)
	}
	if rw.Bits[0].Status != rewrite.StatusBudget {
		t.Fatalf("failed bit status %q", rw.Bits[0].Status)
	}
}

func TestExpiryRequeueIsUnbounded(t *testing.T) {
	// Worker death is not the cone's fault: expiry re-queues must NOT count
	// against MaxAttempts, or chaos (many kills) would exhaust real work.
	clk := newFakeClock()
	p := newTestPool(t, 1, clk, func(c *Config) {
		c.MaxAttempts = 2
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 2 * time.Millisecond
	})
	for i := 0; i < 10; i++ {
		g, err := p.Lease(fmt.Sprintf("w%d", i), 0)
		if errors.Is(err, ErrNoWork) {
			clk.Advance(10 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = g
		clk.Advance(2 * time.Second) // let it expire
		p.expiryTick()
	}
	clk.Advance(time.Second)
	g, err := p.Lease("finisher", 0)
	if err != nil {
		t.Fatalf("cone must still be leasable after many expiries: %v", err)
	}
	if _, err := p.Submit(g.Lease, g.Epoch, pack(okResult(0))); err != nil {
		t.Fatal(err)
	}
	if !p.Finished() {
		t.Fatal("pool should finish")
	}
}

func TestPriorAndStoreSeeding(t *testing.T) {
	store := NewStore(0)
	// First pool: complete bit 0 via Prior, bit 1 via a worker.
	p1 := newTestPool(t, 2, nil, func(c *Config) {
		c.Store = store
		c.Prior = []rewrite.BitResult{okResult(0)}
	})
	if st := p1.Stats(); st.Reused != 1 {
		t.Fatalf("stats %+v, want Reused=1", st)
	}
	g, err := p1.Lease("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cones) != 1 || g.Cones[0] != 1 {
		t.Fatalf("lease after prior seeding got %v, want [1]", g.Cones)
	}
	if _, err := p1.Submit(g.Lease, g.Epoch, pack(okResult(1))); err != nil {
		t.Fatal(err)
	}

	// Second pool over the same hash: every cone served from the store,
	// no lease ever granted.
	var observed []int
	p2 := newTestPool(t, 2, nil, func(c *Config) {
		c.Store = store
		c.OnResult = func(br rewrite.BitResult) { observed = append(observed, br.Bit) }
	})
	if !p2.Finished() {
		t.Fatal("second pool should start finished")
	}
	if st := p2.Stats(); st.Cached != 2 {
		t.Fatalf("stats %+v, want Cached=2", st)
	}
	if len(observed) != 2 {
		t.Fatalf("OnResult saw %v, want both cached cones", observed)
	}
	if rw := p2.Result(); rw.Reused != 2 {
		t.Fatalf("Result().Reused = %d, want 2", rw.Reused)
	}
}

func TestStoreSingleFlightAndEviction(t *testing.T) {
	s := NewStore(2)
	if !s.Put(testHash, 0, okResult(0)) {
		t.Fatal("first Put must win")
	}
	if s.Put(testHash, 0, okResult(0)) {
		t.Fatal("second Put of same key must report not-new")
	}
	if s.Put(testHash, 1, failResult(1)) {
		t.Fatal("failed results must not be cacheable")
	}
	s.Put(testHash, 1, okResult(1))
	s.Put(testHash, 2, okResult(2)) // evicts (hash,0) FIFO
	if _, ok := s.Get(testHash, 0); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := s.Get(testHash, 2); !ok {
		t.Fatal("newest entry missing")
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d, want 2", s.Len())
	}
}

func TestHubRoutesAndShipsNetlist(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.HashNetlist(n)
	if err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(t, 8, nil, func(c *Config) { c.Hash = hash })
	hub := NewHub()
	if err := hub.Register("job1", pool, n); err != nil {
		t.Fatal(err)
	}

	// First grant to a worker without the hash ships the netlist body.
	g, err := hub.Lease("w1", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Netlist == "" {
		t.Fatal("grant to a cold worker must carry the netlist body")
	}
	// A worker advertising the hash gets a body-free grant.
	g2, err := hub.Lease("w2", 2, []string{hash})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Netlist != "" {
		t.Fatal("grant must omit the netlist when the worker has the hash")
	}

	// Renew routes by lease ID; after Unregister everything fences.
	if _, err := hub.Renew(g.Lease, g.Epoch); err != nil {
		t.Fatal(err)
	}
	hub.Unregister("job1")
	if _, err := hub.Renew(g.Lease, g.Epoch); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("renew after unregister: %v, want ErrLeaseExpired", err)
	}
	if _, err := hub.Lease("w3", 0, nil); !errors.Is(err, ErrNoWork) {
		t.Fatalf("lease with no pools: %v, want ErrNoWork", err)
	}
}

func TestExtractShardedMatchesMonolithic(t *testing.T) {
	for _, m := range []int{4, 8, 16} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		ext, diag, stats, err := Extract(n, extract.Options{}, ExtractOptions{Workers: 4, MaxCones: 3})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !ext.P.Equal(p) {
			t.Errorf("m=%d: extracted %v, want %v", m, ext.P, p)
		}
		if !ext.Verified {
			t.Errorf("m=%d: golden verification should have run", m)
		}
		if diag != nil {
			t.Errorf("m=%d: clean strict run should not produce a diagnosis", m)
		}
		if stats.Accepted != m {
			t.Errorf("m=%d: accepted %d cones, want %d", m, stats.Accepted, m)
		}
		if stats.DoubleAccepts != 0 {
			t.Errorf("m=%d: double accepts: %+v", m, stats)
		}
	}
}

func TestExtractShardedReusesStoreAcrossJobs(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	if _, _, _, err := Extract(n, extract.Options{}, ExtractOptions{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	ext, _, stats, err := Extract(n, extract.Options{}, ExtractOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("second run extracted %v, want %v", ext.P, p)
	}
	if stats.Cached != 8 || stats.Granted != 0 {
		t.Fatalf("second run stats %+v: want every cone cached, no lease granted", stats)
	}
	if ext.Rewrite.Reused != 8 {
		t.Fatalf("Reused = %d, want 8", ext.Rewrite.Reused)
	}
}

func TestExtractShardedWithRemotePeerOverHub(t *testing.T) {
	// A coordinator with NO local workers completes through a peer driving
	// RunWorkers against the hub — the in-process version of the 2-node
	// setup, proving grants/submissions flow through the Hub Source.
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The peer polls the hub until the extraction registers, executes
		// leases, and exits when the pool unregisters (ErrNoWork forever —
		// stopped via ctx).
		src := hubSource{hub}
		for ctx.Err() == nil {
			g, err := src.Lease("peer-0", 0)
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			if _, err := ExecuteLease(ctx, src, n, g, rewrite.NewWorker(nil), rewrite.Options{}); err != nil &&
				!errors.Is(err, ErrLeaseExpired) {
				t.Errorf("peer execute: %v", err)
				return
			}
		}
	}()

	ext, _, stats, err := Extract(n, extract.Options{}, ExtractOptions{Workers: -1, Hub: hub, HubKey: "job"})
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("extracted %v, want %v", ext.P, p)
	}
	if stats.Accepted != 8 || stats.DoubleAccepts != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

// hubSource adapts a Hub to the worker's Source interface the way a remote
// peer sees it (no have-list optimization).
type hubSource struct{ h *Hub }

func (s hubSource) Lease(worker string, max int) (*Grant, error) {
	return s.h.Lease(worker, max, nil)
}
func (s hubSource) Renew(id string, epoch uint64) (time.Time, error) { return s.h.Renew(id, epoch) }
func (s hubSource) Submit(id string, epoch uint64, results []rewrite.BitResult) (SubmitReply, error) {
	return s.h.Submit(id, epoch, results)
}

// expiryTick forces one on-demand expiry scan (tests drive the fake clock,
// so the background ticker's wall-time cadence is irrelevant).
func (p *Pool) expiryTick() {
	p.mu.Lock()
	p.expireLocked(p.cfg.Clock())
	p.mu.Unlock()
}

// TestStrictConeFailureTypedUnderBothSchedulers: on the strict path a
// budget-failed cone fails the run with the rewrite engine's typed error
// whichever scheduler ran the cones — never a consensus verdict.
func TestStrictConeFailureTypedUnderBothSchedulers(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Montgomery(16, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := extract.Options{BudgetTerms: 8}
	_, local := extract.IrreduciblePolynomial(n, opts)
	_, _, _, sharded := Extract(n, opts, ExtractOptions{Workers: 2})
	for name, err := range map[string]error{"local": local, "sharded": sharded} {
		if !errors.Is(err, rewrite.ErrBudgetExceeded) || errors.Is(err, extract.ErrConsensus) {
			t.Errorf("%s: err = %v, want rewrite.ErrBudgetExceeded and not ErrConsensus", name, err)
		}
	}
}

// TestShardedMismatchLeavesSnapshotIncomplete: the sharded strict path
// marks its snapshot complete only after the golden model passed.
func TestShardedMismatchLeavesSnapshotIncomplete(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "trojan8.eqn"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := netlist.ReadEQN(f, "trojan8")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, _, _, err = Extract(n, extract.Options{Checkpoint: checkpoint.NewManager(dir, 0)}, ExtractOptions{Workers: 2})
	if !errors.Is(err, extract.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	snap, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Complete {
		t.Fatalf("mismatching sharded run left a complete snapshot with P = %q", snap.P)
	}
}
