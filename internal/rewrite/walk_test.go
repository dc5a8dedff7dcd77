package rewrite

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

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
			if !fused.Expr.Equal(ref.Expr) || fused.Substitutions != ref.Substitutions ||
				fused.PeakTerms != ref.PeakTerms || fused.Cancelled != ref.Cancelled ||
				fused.FinalTerms != ref.FinalTerms {
				t.Errorf("bit %d: fused %+v, full-cone walk %+v", bit, fused.BitStats, ref.BitStats)
			}
		}()
	}
	wg.Wait()
}
