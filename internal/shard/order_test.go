package shard

import (
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// TestLeaseDeepestFirst pins the one cone order of both schedulers: the
// pool leases pending cones in rewrite.ConeOrder, deepest root first, as
// rewrite.Outputs feeds its workers.
func TestLeaseDeepestFirst(t *testing.T) {
	p, err := polytab.Default(12)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Montgomery(12, p)
	if err != nil {
		t.Fatal(err)
	}
	order := rewrite.ConeOrder(n)
	if slices.IsSorted(order) {
		t.Fatalf("cone order %v is bit order: the design does not tell the orders apart", order)
	}
	levels, _ := n.Levels()
	outs := n.Outputs()
	for i := 1; i < len(order); i++ {
		if levels[outs[order[i-1]]] < levels[outs[order[i]]] {
			t.Fatalf("cone order %v is not deepest first", order)
		}
	}
	pool, err := NewPool(Config{Hash: "h", Order: order, MaxConesPerLease: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var leased []int
	for len(leased) < len(order) {
		g, err := pool.Lease("w", 5)
		if err != nil {
			t.Fatal(err)
		}
		leased = append(leased, g.Cones...)
	}
	if !slices.Equal(leased, order) {
		t.Errorf("leased %v, want %v", leased, order)
	}
	for _, bad := range [][]int{nil, {0, 0, 1}, {0, 2}, {-1, 0}} {
		if _, err := NewPool(Config{Hash: "h", Order: bad}); err == nil {
			t.Errorf("lease order %v, not a permutation of the bits, was accepted", bad)
		}
	}
}

// TestOneDigestPerExtraction pins the canonical hash to one computation per
// extraction: preflight's, which checkpointing and the lease pool then
// reuse through the netlist's memo, with -checkpoint, with -shard and with
// both.
func TestOneDigestPerExtraction(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		checkpoint, shard bool
	}{
		{"checkpoint", true, false},
		{"shard", false, true},
		{"checkpoint+shard", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := gen.Mastrovito(16, p)
			if err != nil {
				t.Fatal(err)
			}
			opts := extract.Options{Preflight: true}
			if tc.checkpoint {
				opts.Checkpoint = checkpoint.NewManager(t.TempDir(), -1)
			}
			var st extract.Stages
			if tc.shard {
				st.Rewrite = Rewriter(ExtractOptions{Workers: 2}, nil)
			}
			before := netlist.DigestsComputed()
			ext, _, _, err := extract.Run(n, opts, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := netlist.DigestsComputed() - before; got != 1 {
				t.Errorf("%d canonical digests computed in one extraction, want 1", got)
			}
			if ext.P.String() != p.String() {
				t.Errorf("extracted %s, want %s", ext.P, p)
			}
		})
	}
}

// TestOneLevelsPassPerExtraction pins the netlist's logic levels to one
// computation per netlist: rewrite.ConeOrder (both schedulers' cone order)
// reads them from the netlist's memo, so an extraction computes them once,
// locally and with -shard, and a second extraction of the same netlist not
// at all.
func TestOneLevelsPassPerExtraction(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		shard bool
	}{
		{"local", false},
		{"shard", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := gen.Montgomery(16, p)
			if err != nil {
				t.Fatal(err)
			}
			var st extract.Stages
			if tc.shard {
				st.Rewrite = Rewriter(ExtractOptions{Workers: 2}, nil)
			}
			for run, want := range []int64{1, 0} {
				before := netlist.LevelsComputed()
				ext, _, _, err := extract.Run(n, extract.Options{Preflight: true}, st)
				if err != nil {
					t.Fatal(err)
				}
				if got := netlist.LevelsComputed() - before; got != want {
					t.Errorf("extraction %d computed the netlist's levels %d times, want %d", run+1, got, want)
				}
				if ext.P.String() != p.String() {
					t.Errorf("extracted %s, want %s", ext.P, p)
				}
			}
		})
	}
}
