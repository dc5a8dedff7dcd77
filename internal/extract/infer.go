package extract

import (
	"fmt"
	"slices"
	"sort"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Port inference recovers the multiplier's port mapping — which inputs form
// operand A vs B, the bit order within each operand, and the numeric order
// of the outputs — purely from the extracted ANF expressions. The paper
// assumes this mapping is known (its benchmarks use canonical a/b/z names);
// real third-party netlists are often anonymized or scrambled, which this
// extension handles.
//
// The structure that makes inference possible:
//
//   - every monomial of a multiplier's ANF is a product a_i·b_j of one bit
//     from each operand, and every (i,j) pair occurs somewhere, so the
//     monomial graph on inputs is the complete bipartite graph K_{m,m};
//     two-coloring it recovers the operand partition (A/B roles are
//     interchangeable — multiplication commutes);
//   - the product a_i·b_j lives only in the partial sum s_{i+j}; for
//     i+j < m, s_{i+j} feeds exactly output bit i+j, while for i+j >= m the
//     field reduction spreads it over the (normally several) nonzero
//     positions of x^(i+j) mod P. Hence bit index i of an A-input equals
//     the number of its pair-products whose occurrence set is not a
//     singleton — a_0 has none, a_{m-1} has m-1 — and symmetrically for B;
//   - with a_0 and the B order known, output z_k is the unique output
//     containing a_0·b_k.
//
// The counting argument assumes x^k mod P(x) has weight >= 2 for
// m <= k <= 2m-2, which holds unless the multiplicative order of x in the
// field is below 2m-1 (possible only for non-primitive P of special form);
// InferPorts detects the resulting ambiguity and reports it instead of
// guessing, and IrreduciblePolynomial verifies the inferred mapping against
// the golden model anyway.

// InferredPorts is a recovered port mapping.
type InferredPorts struct {
	// A, B hold operand input gate IDs, LSB first.
	A, B []int
	// OutputOrder maps logical bit k to the netlist output position that
	// carries z_k.
	OutputOrder []int
}

// InferPorts recovers the port mapping from rewritten output expressions.
// It walks each expression once, tallying every product x_u·x_v of input
// positions u, v in an L×L table (L = number of inputs): how many outputs
// contain it, and the first that does. The monomial graph's adjacency, the
// bit-order counts and the output order are all read off that table.
func InferPorts(n *netlist.Netlist, rw *rewrite.Result) (*InferredPorts, error) {
	m := len(rw.Bits)
	ins := n.Inputs()
	// Dangling inputs (test pins, tied-off scan ports) are tolerated: only
	// the 2m inputs that actually appear in the output expressions matter.
	if len(ins) < 2*m {
		return nil, fmt.Errorf("%w: %d inputs for %d outputs (need at least 2m)", ErrBadPorts, len(ins), m)
	}
	nIn := len(ins)
	posOf := make([]int32, n.NumGates()) // gate ID -> input position, -1 otherwise
	for i := range posOf {
		posOf[i] = -1
	}
	for i, id := range ins {
		posOf[id] = int32(i)
	}
	inputPos := func(v anf.Var) int {
		if int(v) >= len(posOf) {
			return -1
		}
		return int(posOf[v])
	}

	// count[u*nIn+v] (symmetric) = number of outputs whose expression
	// contains x_u·x_v; first[...] = the first such output.
	count := make([]int32, nIn*nIn)
	first := make([]int32, nIn*nIn)
	foreign, foreignOut := anf.Var(0), -1
	for pos, br := range rw.Bits {
		badDeg := -1 // lowest degree among this output's non-product monomials
		br.Expr.Terms(func(vars []anf.Var) bool {
			if len(vars) != 2 {
				if badDeg < 0 || len(vars) < badDeg {
					badDeg = len(vars)
				}
				return true
			}
			u, v := inputPos(vars[0]), inputPos(vars[1])
			if u < 0 || v < 0 {
				if foreignOut < 0 {
					foreign, foreignOut = vars[0], pos
					if u >= 0 {
						foreign = vars[1]
					}
				}
				return true
			}
			uv, vu := u*nIn+v, v*nIn+u
			if count[uv] == 0 {
				first[uv], first[vu] = int32(pos), int32(pos)
			}
			count[uv]++
			count[vu]++
			return true
		})
		if badDeg >= 0 {
			return nil, fmt.Errorf("%w: output %d has a degree-%d monomial; multiplier ANF monomials are a_i·b_j",
				ErrNotMultiplier, pos, badDeg)
		}
	}
	if foreignOut >= 0 {
		return nil, fmt.Errorf("%w: output %d has a monomial over signal %d, which is not a primary input",
			ErrNotMultiplier, foreignOut, foreign)
	}
	row := func(u int) []int32 { return count[u*nIn : (u+1)*nIn] }

	// The inputs sharing a monomial with some other input participate; the
	// two-coloring starts from the first (the first input port may be
	// dangling).
	participating, start := 0, -1
	for u := 0; u < nIn; u++ {
		if slices.ContainsFunc(row(u), func(c int32) bool { return c > 0 }) {
			participating++
			if start < 0 {
				start = u
			}
		}
	}
	if participating != 2*m {
		return nil, fmt.Errorf("%w: %d inputs appear in the output expressions, want exactly %d",
			ErrNotMultiplier, participating, 2*m)
	}

	// Two-color the monomial graph to split the operands.
	color := make([]int8, nIn) // 0 uncolored, else side 1 or 2
	color[start] = 1
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v, c := range row(u) {
			if c == 0 {
				continue
			}
			if color[v] != 0 {
				if color[v] == color[u] {
					return nil, fmt.Errorf("%w: monomial graph is not bipartite", ErrNotMultiplier)
				}
				continue
			}
			color[v] = 3 - color[u]
			queue = append(queue, v)
		}
	}
	var sideA, sideB []int
	for u, c := range color {
		switch c {
		case 1:
			sideA = append(sideA, u)
		case 2:
			sideB = append(sideB, u)
		}
	}
	if reached := len(sideA) + len(sideB); reached != 2*m {
		return nil, fmt.Errorf("%w: monomial graph is disconnected (%d of %d inputs reached)",
			ErrNotMultiplier, reached, 2*m)
	}
	if len(sideA) != m || len(sideB) != m {
		return nil, fmt.Errorf("%w: operand split is %d/%d, want %d/%d",
			ErrNotMultiplier, len(sideA), len(sideB), m, m)
	}

	// Bit order: index of u = number of pair-products whose occurrence set
	// is not a singleton.
	orderSide := func(side []int) ([]int, error) {
		multi := make([]int, nIn)
		for _, u := range side {
			for _, c := range row(u) {
				if c > 1 {
					multi[u]++
				}
			}
		}
		out := append([]int(nil), side...)
		sort.Slice(out, func(i, j int) bool { return multi[out[i]] < multi[out[j]] })
		for i, u := range out {
			if multi[u] != i {
				return nil, fmt.Errorf("%w: ambiguous bit order (multi-count %d at rank %d; is P(x) of unusually low order?)",
					ErrBadPorts, multi[u], i)
			}
		}
		return out, nil
	}
	orderedA, err := orderSide(sideA)
	if err != nil {
		return nil, err
	}
	orderedB, err := orderSide(sideB)
	if err != nil {
		return nil, err
	}

	// Output order: z_k is the unique output containing a_0·b_k.
	outputOrder := make([]int, m)
	seen := make([]bool, m)
	for k, v := range orderedB {
		c := orderedA[0]*nIn + v
		if count[c] != 1 {
			return nil, fmt.Errorf("%w: a_0·b_%d appears in %d outputs, want 1", ErrBadPorts, k, count[c])
		}
		pos := int(first[c])
		if seen[pos] {
			return nil, fmt.Errorf("%w: output %d claimed by two bit positions", ErrBadPorts, pos)
		}
		seen[pos] = true
		outputOrder[k] = pos
	}

	ip := &InferredPorts{OutputOrder: outputOrder}
	for _, u := range orderedA {
		ip.A = append(ip.A, ins[u])
	}
	for _, u := range orderedB {
		ip.B = append(ip.B, ins[u])
	}
	return ip, nil
}

// ReorderBits returns a copy of rw with the bit slice permuted into logical
// order: element k of the result is the expression of z_k. Failed lists
// logical positions; the run-level counters carry over unchanged.
func (ip *InferredPorts) ReorderBits(rw *rewrite.Result) *rewrite.Result {
	out := &rewrite.Result{
		Bits:    make([]rewrite.BitResult, len(rw.Bits)),
		Runtime: rw.Runtime,
		Threads: rw.Threads,
		Retries: rw.Retries,
		Reused:  rw.Reused,
	}
	for k, pos := range ip.OutputOrder {
		out.Bits[k] = rw.Bits[pos]
		if out.Bits[k].Status.Failed() {
			out.Failed = append(out.Failed, k)
		}
	}
	return out
}

// IrreduciblePolynomialInferred reverse engineers P(x) from a multiplier
// netlist whose port naming and ordering are unknown or scrambled: the
// operand partition, bit order and output order are inferred from the
// expressions before Algorithm 2 runs. Golden-model verification uses the
// inferred mapping.
func IrreduciblePolynomialInferred(n *netlist.Netlist, opts Options) (*Extraction, *InferredPorts, error) {
	ext, _, ip, err := run(n, opts, Stages{InferPorts: true}, nil)
	return ext, ip, err
}
