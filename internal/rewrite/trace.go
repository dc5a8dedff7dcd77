package rewrite

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
)

// FormatPoly renders an ANF polynomial with netlist signal names instead of
// raw variable IDs — the notation of the paper's Figure 3 (e.g.
// "a0·b1+a1·b0+a1·b1").
func FormatPoly(p anf.Poly, n *netlist.Netlist) string {
	monos := p.Monos()
	parts := make([]string, len(monos))
	for i, m := range monos {
		parts[i] = formatMono(m.Vars(), n)
	}
	return joinTerms(parts)
}

// formatTerms renders a gate model the way FormatPoly renders a polynomial.
func formatTerms(e *anf.Terms, n *netlist.Netlist) string {
	parts := make([]string, len(e.Masks))
	for i, m := range e.Masks {
		var vars []anf.Var
		for j, v := range e.Vars {
			if m&(1<<uint(j)) != 0 {
				vars = append(vars, v)
			}
		}
		parts[i] = formatMono(vars, n)
	}
	return joinTerms(parts)
}

// formatMono renders one monomial as its sorted signal names, "1" if empty.
func formatMono(vars []anf.Var, n *netlist.Netlist) string {
	if len(vars) == 0 {
		return "1"
	}
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = n.NameOf(int(v))
	}
	sort.Strings(names)
	return strings.Join(names, "·")
}

// joinTerms sorts rendered terms into one sum, "0" if there are none.
func joinTerms(parts []string) string {
	if len(parts) == 0 {
		return "0"
	}
	sort.Strings(parts)
	return strings.Join(parts, "+")
}

// TraceOutput rewrites the single output driven by gate root as RewriteCone
// does (ungoverned), but logs every iteration of Algorithm 1 to w in the
// style of the paper's Figure 3: the gate substituted, the polynomial after
// mod-2 simplification, and the number of monomials cancelled in the step.
// Intended for small designs (the full expression is printed per step).
func TraceOutput(n *netlist.Netlist, root int, w io.Writer) (BitResult, error) {
	fmt.Fprintf(w, "F0 = %s\n", n.NameOf(root))
	br, err := NewWorker(nil).rewrite(n, root, pass{trace: w})
	br.ConeGates = len(n.Cone(root))
	return br, err
}
