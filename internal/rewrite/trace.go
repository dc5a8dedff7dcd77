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
	if p.IsZero() {
		return "0"
	}
	monos := p.Monos()
	parts := make([]string, 0, len(monos))
	for _, m := range monos {
		if m.IsOne() {
			parts = append(parts, "1")
			continue
		}
		vars := m.Vars()
		names := make([]string, len(vars))
		for i, v := range vars {
			names[i] = n.NameOf(int(v))
		}
		sort.Strings(names)
		parts = append(parts, strings.Join(names, "·"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "+")
}

// TraceOutput rewrites the single output driven by gate root exactly like
// Output, but logs every iteration of Algorithm 1 to w in the style of the
// paper's Figure 3: the gate substituted, the polynomial after mod-2
// simplification, and the number of monomials cancelled in the step.
// Intended for small designs (the full expression is printed per step).
func TraceOutput(n *netlist.Netlist, root int, w io.Writer) (BitResult, error) {
	fmt.Fprintf(w, "F0 = %s\n", n.NameOf(root))
	br, err := rewriteOutput(n, root, pass{trace: w})
	br.ConeGates = len(n.Cone(root))
	return br, err
}
