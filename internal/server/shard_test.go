package server

import (
	"errors"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
	"github.com/galoisfield/gfre/internal/shard"
)

// TestShardResultRejectsBadEnvelopeWithoutFencing: an envelope the pool
// rejects as a whole (a bit out of range) is a 400 that leaves the lease
// live; only the epoch fence answers 410.
func TestShardResultRejectsBadEnvelopeWithoutFencing(t *testing.T) {
	p, err := polytab.Default(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(4, p)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.HashNetlist(n)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.NewPool(shard.Config{Hash: hash, Order: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	hub := shard.NewHub()
	if err := hub.Register("job", pool, n); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Hub: hub})
	cl := &shard.Client{Base: ts.URL, Retries: 1}
	g, err := cl.Lease("peer-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []rewrite.BitResult{{BitStats: rewrite.BitStats{Bit: 99}, Status: rewrite.StatusBudget, Err: "x"}}
	if _, err := cl.Submit(g.Lease, g.Epoch, bad); err == nil || errors.Is(err, shard.ErrLeaseExpired) {
		t.Fatalf("out-of-range envelope: err = %v, want a rejection that is not the fence", err)
	}
	if !pool.LeaseLive(g.Lease) {
		t.Fatal("a rejected envelope fenced a live lease")
	}
	pool.ExpireLease(g.Lease)
	ok := []rewrite.BitResult{{BitStats: rewrite.BitStats{Bit: g.Cones[0]}, Status: rewrite.StatusBudget, Err: "x"}}
	if _, err := cl.Submit(g.Lease, g.Epoch, ok); !errors.Is(err, shard.ErrLeaseExpired) {
		t.Fatalf("submit to an expired lease: err = %v, want ErrLeaseExpired", err)
	}
}
