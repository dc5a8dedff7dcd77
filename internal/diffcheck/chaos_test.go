package diffcheck

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/rewrite"
	"github.com/galoisfield/gfre/internal/shard"
)

// TestChaosCaseRecoversPlantedP runs a handful of chaos cases directly:
// despite killed workers, expired leases and duplicated submissions, each
// must recover its planted P(x) exactly with zero double-accepted cones.
func TestChaosCaseRecoversPlantedP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cases take seconds each")
	}
	cfg := Config{Seed: 11, Kind: KindChaos, MinM: 4, MaxM: 8}
	for idx := 0; idx < 4; idx++ {
		c := NewCase(idx, cfg)
		if c.Kind != KindChaos {
			t.Fatalf("case %d sampled kind %q, want chaos", idx, c.Kind)
		}
		res := Run(c)
		if res.Status != Pass {
			t.Fatalf("case %d [%s] failed at %s: %s", idx, c.Label(), res.Stage, res.Err)
		}
		if res.Verdict == nil {
			t.Fatalf("case %d did not run the chaos pipeline", idx)
		}
	}
}

// TestChaosCampaignAggregates runs a small campaign end to end and checks
// the summary carries the chaos tallies: with 40ms leases and a partitioner
// in play, a multi-case campaign that never expires a lease would mean the
// fault injection is not actually firing.
func TestChaosCampaignAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns take seconds")
	}
	sum, err := RunCampaign(Config{
		N: 6, Seed: 3, Kind: KindChaos, MinM: 4, MaxM: 7,
		Workers: 2, Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		}
		t.Fatalf("%d of %d chaos cases failed", sum.Failed, sum.Cases)
	}
	if sum.Tally.Verdicts != 6 {
		t.Fatalf("Chaosed = %d, want 6", sum.Tally.Verdicts)
	}
	for _, k := range []string{"expired", "kills", "fenced"} {
		if sum.Tally.Sum(k) == 0 {
			t.Fatalf("%s = 0 across the campaign: fault injection is not firing", k)
		}
	}
	if sum.ByArch["chaos"] != 6 {
		t.Fatalf("ByArch = %v", sum.ByArch)
	}
}

// chaosClock is a manually advanced pool clock.
type chaosClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestChaosSourceFiresEveryFault drives the fault-injecting Source by hand
// against a real pool on a fake clock with a fixed seed, and checks that
// every fault class fires and does what it claims at the pool: a killed
// worker's renewals fail while its lease stays live and its results never
// arrive, a starved heartbeat is a success the pool never saw, delayed
// submissions land after the lease expired, and split and duplicated
// envelopes are classified without a double accept.
func TestChaosSourceFiresEveryFault(t *testing.T) {
	const bits, ttl = 48, 40 * time.Millisecond
	clk := &chaosClock{now: time.Unix(1000, 0)}
	order := make([]int, bits)
	for bit := range order {
		order[bit] = bit
	}
	pool, err := shard.NewPool(shard.Config{
		Hash: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", Order: order,
		LeaseTTL: ttl, MaxConesPerLease: 2, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond,
		Seed: 5, Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	src := newChaosSource(context.Background(), pool, 17)
	src.sleep = func(d time.Duration) bool { clk.Advance(d); return true }

	for i := 0; i < 1000 && !pool.Finished(); i++ {
		g, err := src.Lease("w", 0)
		if err != nil {
			clk.Advance(5 * time.Millisecond) // past every backoff
			continue
		}
		results := make([]rewrite.BitResult, len(g.Cones))
		for k, bit := range g.Cones {
			results[k] = rewrite.BitResult{BitStats: rewrite.BitStats{Bit: bit}, Status: rewrite.StatusOK}
		}
		before := pool.Stats()
		_, rerr := src.Renew(g.Lease, g.Epoch)
		switch src.fate(g.Lease) {
		case fateKilled:
			if !errors.Is(rerr, shard.ErrLeaseExpired) {
				t.Fatalf("killed lease renewed: %v", rerr)
			}
			src.Submit(g.Lease, g.Epoch, results)
			if !pool.LeaseLive(g.Lease) || pool.Stats().Accepted != before.Accepted {
				t.Fatal("a killed worker's lease must stay live at the pool and its results must not arrive")
			}
			clk.Advance(ttl) // the lease expires; its cones re-queue
			continue
		case fateStarved:
			if rerr != nil || pool.Stats().Renewed != before.Renewed {
				t.Fatalf("starved heartbeat: err %v, renewed %d -> %d; want a success the pool never saw",
					rerr, before.Renewed, pool.Stats().Renewed)
			}
			clk.Advance(ttl) // the lease expires under its worker
		default:
			if rerr != nil || pool.Stats().Renewed != before.Renewed+1 {
				t.Fatalf("honest heartbeat did not reach the pool: %v", rerr)
			}
		}
		src.Submit(g.Lease, g.Epoch, results)
	}
	if !pool.Finished() {
		t.Fatalf("pool did not finish: %+v", pool.Stats())
	}
	st := pool.Stats()
	for name, v := range map[string]int64{
		"kills": src.kills, "starved heartbeats": src.swallowedHB, "delayed": src.delayedSubmits,
		"split": src.splitSubmits, "duplicated": src.dupSubmits,
		"expired": int64(st.Expired), "fenced": int64(st.Fenced), "duplicate": int64(st.Duplicate),
	} {
		if v == 0 {
			t.Errorf("%s = 0: that fault never fired (source %+v, pool %+v)", name, src, st)
		}
	}
	if st.DoubleAccepts != 0 || st.Accepted != bits {
		t.Fatalf("pool stats %+v: want every cone accepted exactly once", st)
	}
}
