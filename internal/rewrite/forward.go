package rewrite

import (
	"fmt"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
)

// Forward computes the canonical ANF of every output by forward
// abstraction: every gate's expression over primary inputs is built
// bottom-up by composing its fanins' expressions through the gate's
// algebraic model.
//
// This is the baseline the paper's technique is designed to beat. Forward
// abstraction materializes an input-level expression for EVERY internal
// gate simultaneously, so its working set is the sum of all intermediate
// expression sizes — the "memory explosion" that makes naive symbolic
// approaches fail on large arithmetic circuits. Backward rewriting
// (Outputs) instead keeps one polynomial per output bit and only within
// that bit's cone, which is what Theorem 2 exploits. The two must agree
// bit-for-bit (both are canonical); BenchmarkAblationForwardVsBackward
// measures the cost gap.
func Forward(n *netlist.Netlist) (*Result, error) {
	start := time.Now()
	outs := n.Outputs()
	if len(outs) == 0 {
		return nil, fmt.Errorf("rewrite: netlist %q has no outputs", n.Name)
	}

	exprs := make([]anf.Poly, n.NumGates())
	have := make([]bool, n.NumGates())
	resident := 0 // total terms held across ALL gate expressions
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			exprs[id] = anf.Variable(anf.Var(id))
			have[id] = true
			continue
		}
		// Gate model over fanin variables, then substitute each fanin
		// variable by its input-level expression.
		e, err := n.GateANF(id)
		if err != nil {
			return nil, err
		}
		for _, f := range g.Fanin {
			if !have[f] {
				return nil, fmt.Errorf("rewrite: forward pass reached gate %d before fanin %d", id, f)
			}
			if e.ContainsVar(anf.Var(f)) && n.Gate(f).Type != netlist.Input {
				e.Substitute(anf.Var(f), exprs[f])
			}
		}
		exprs[id] = e
		have[id] = true
		resident += e.Len()
	}

	res := &Result{Bits: make([]BitResult, len(outs)), Threads: 1}
	names := n.OutputNames()
	sizes := n.ConeSizes()
	for i, root := range outs {
		br := BitResult{Expr: exprs[root]}
		br.Bit = i
		br.Name = names[i]
		br.FinalTerms = exprs[root].Len()
		// Forward abstraction holds every gate's expression at once; the
		// whole-pass resident term count is the honest "peak" for each bit.
		br.PeakTerms = resident
		br.ConeGates = sizes[i]
		res.Bits[i] = br
	}
	res.Runtime = time.Since(start)
	return res, nil
}
