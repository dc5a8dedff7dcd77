package rewrite

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
)

// TestFusedWalkMatchesFullConeOrder is the per-bit differential test of the
// fused walk: rewriting that expands only substituted gates must perform
// exactly the substitution sequence of an explicit descending walk over the
// whole n.Cone(root), so every expression and every cost counter agrees.
func TestFusedWalkMatchesFullConeOrder(t *testing.T) {
	for _, m := range []int{8, 16, 64, 163} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		mast, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		mont, err := gen.Montgomery(m, p)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := opt.Synthesize(mast)
		if err != nil {
			t.Fatal(err)
		}
		for arch, n := range map[string]*netlist.Netlist{"mastrovito": mast, "montgomery": mont, "synthesized": syn} {
			t.Run(fmt.Sprintf("%s/m=%d", arch, m), func(t *testing.T) {
				t.Parallel()
				checkFusedWalk(t, n)
			})
		}
	}
}

func checkFusedWalk(t *testing.T, n *netlist.Netlist) {
	sizes := n.ConeSizes()
	outs := n.Outputs()
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for bit, root := range outs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			fused, err := new(Worker).rewrite(n, root, pass{})
			if err != nil {
				t.Error(err)
				return
			}
			full := n.Cone(root)
			if sizes[bit] != len(full) {
				t.Errorf("bit %d: cone index size %d, len(Cone) %d", bit, sizes[bit], len(full))
			}
			slices.Reverse(full)
			ref, err := new(Worker).rewrite(n, root, pass{order: full})
			if err != nil {
				t.Error(err)
				return
			}
			if ref.ConeGates != len(full) || fused.ConeGates > len(full) {
				t.Errorf("bit %d: the full-cone walk visited %d gates and the fused one %d, of %d", bit, ref.ConeGates, fused.ConeGates, len(full))
			}
			if !fused.Expr.Equal(ref.Expr) || fused.Substitutions != ref.Substitutions ||
				fused.PeakTerms != ref.PeakTerms || fused.Cancelled != ref.Cancelled ||
				fused.FinalTerms != ref.FinalTerms {
				t.Errorf("bit %d: fused %+v, full-cone walk %+v", bit, fused.BitStats, ref.BitStats)
			}
		}()
	}
	wg.Wait()
}

// liveCone counts, independently of the worker, the gates a rewriting walk
// of root visits: root, and every fanin of a gate whose variable still
// occurs when the walk reaches it.
func liveCone(t *testing.T, n *netlist.Netlist, root int) int {
	t.Helper()
	f := anf.Variable(anf.Var(root))
	var e anf.Terms
	visits := 0
	err := n.WalkCone(root, func(id int) (bool, error) {
		visits++
		if typ, _ := n.Cell(id); typ == netlist.Input || f.VarOccurrences(anf.Var(id)) == 0 {
			return false, nil
		}
		if err := n.GateTerms(id, &e); err != nil {
			return false, err
		}
		f.SubstituteTerms(anf.Var(id), &e)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return visits
}

// TestConeGatesIsTheLiveCone pins BitStats.ConeGates to the live cone: the
// gates the rewriting walk visited, counted here without the worker, the
// same under Outputs and RewriteCone, and never more than the structural
// cone len(n.Cone(root)).
func TestConeGatesIsTheLiveCone(t *testing.T) {
	for _, m := range []int{8, 64} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		mast, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		mont, err := gen.Montgomery(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*netlist.Netlist{mast, mont} {
			res, err := Outputs(n, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorker(nil)
			fewer := 0
			for bit, root := range n.Outputs() {
				want, full := liveCone(t, n, root), len(n.Cone(root))
				one, err := w.RewriteCone(n, bit, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Bits[bit].ConeGates; got != want || one.ConeGates != want || want > full {
					t.Errorf("%s bit %d: ConeGates %d (Outputs), %d (RewriteCone); walk visits %d, structural cone %d",
						n.Name, bit, got, one.ConeGates, want, full)
				}
				if want < full {
					fewer++
				}
			}
			t.Logf("%s m=%d: %d of %d live cones smaller than the structural one", n.Name, m, fewer, len(n.Outputs()))
		}
	}
}
