package netlint

import (
	"fmt"
	"time"

	"github.com/galoisfield/gfre/internal/netlist"
)

// ConeCost is the predicted backward-rewriting cost of one output cone.
type ConeCost struct {
	// Output is the output bit position; Name its signal name.
	Output int    `json:"output"`
	Name   string `json:"name"`
	// Gates is the fanin-cone size (gates + inputs), Depth its logic depth.
	Gates int `json:"gates"`
	Depth int `json:"depth"`
	// PredictedPeakTerms is an upper bound on the ANF term count reached
	// while rewriting this cone: the smaller of the syntactic
	// no-cancellation term bound and the semantic degree bound (see
	// degreeBound). Saturates at costCap.
	PredictedPeakTerms int `json:"predicted_peak_terms"`
	// Saturated marks cones whose estimate hit costCap: term growth is
	// effectively unbounded (obfuscated or non-multiplier logic).
	Saturated bool `json:"saturated,omitempty"`
	// DegA / DegB / DegTot are the semantic sweep's ANF degree bounds for
	// this output (per operand vector and total).
	DegA   int `json:"deg_a"`
	DegB   int `json:"deg_b"`
	DegTot int `json:"deg_tot"`
	// Method names the bound that won: "degree" (semantic) or "term-bound"
	// (syntactic).
	Method string `json:"method"`
}

// costCap saturates the term-growth estimate. Anything above this predicts
// memory exhaustion during rewriting regardless of budget, so finer
// resolution is pointless.
const costCap = 1 << 24

// budget derivation constants. Empirically (BENCH_*.json, m=64) the true
// rewriting peak for clean multipliers sits well below the no-cancellation
// bound (peak 271 terms vs bound >= m^2/2), and the bound itself is cheap
// headroom: a 16x multiplier over the predicted peak admits every legitimate
// design we generate while still stopping doubling-chain blowups within a
// few extra substitution steps. TestConeCostCalibration pins the
// predicted >= actual relationship against real rewriting runs.
const (
	budgetSlack   = 16
	budgetFloor   = 4096
	budgetCeil    = 1 << 26
	deadlineFloor = 60 * time.Second
	// deadlinePerGate scales the per-cone deadline with cone size.
	// Recalibrated for the packed ANF core: the worst m=64 Montgomery cone
	// now rewrites in 2.9ms over ~8500 cone gates (~0.34us/gate, was ~18us
	// under the string-keyed core whose straggler bits ran 151ms), so 2ms
	// per gate still leaves >5000x headroom for slow machines and
	// pathological-but-legitimate designs while halving the auto-deadline
	// the old 5ms constant suggested on large multipliers.
	deadlinePerGate = 2 * time.Millisecond
)

// satAdd / satMul keep the estimate inside [0, costCap].
func satAdd(a, b int) int {
	if s := a + b; s < costCap {
		return s
	}
	return costCap
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}

// mixSlack pads the semantic degree bound for intermediate rewriting states:
// mid-substitution, a cone's working polynomial mixes already-substituted
// primary-input monomials with still-symbolic internal signals, which can
// transiently hold more terms than the final degree-d form over inputs
// alone. Empirically (TestConeCostCalibration, m=16 Mastrovito/Montgomery)
// actual peaks sit under half the unpadded bound; 4x is cheap insurance.
const mixSlack = 4

// degreeBound bounds the ANF term count of a function with the given support
// size and total degree: sum of C(supp, d) for d = 0..deg, times mixSlack,
// saturating at costCap. A degree-2 bilinear cone over 2m inputs comes out
// O(m^2) — the semantic bound the old doubling-chain estimate could not see
// past on reconvergent XOR trees.
func degreeBound(supp, deg int) int {
	if deg >= supp {
		// Degenerate or saturated degree: the full 2^supp spectrum.
		if supp >= 24 {
			return costCap
		}
		return satMul(1<<uint(supp), mixSlack)
	}
	total, c := 0, 1 // c walks C(supp, d)
	for d := 0; d <= deg; d++ {
		total = satAdd(total, c)
		if total >= costCap {
			return costCap
		}
		if c > costCap/(supp-d) {
			return costCap
		}
		c = c * (supp - d) / (d + 1)
	}
	return satMul(total, mixSlack)
}

// gateBound is an upper bound on the number of ANF terms a gate of type
// typ on fanins fanin expands to over the primary inputs, assuming no
// cancellation, from t, the bounds of the gates before it. XOR adds term
// counts, AND multiplies them, OR/complex cells combine both
// (x+y = x ^ y ^ xy). The bound is monotone in the fanin bounds, so
// newContext's one forward sweep settles the DAG (gateScan.bounds). Bounds
// saturate at costCap, so 32 bits hold them.
func gateBound(typ netlist.GateType, fanin []int, t []int32) int32 {
	// The cells of a multiplier first, without the general case's closure.
	switch typ {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return 1
	case netlist.And:
		return int32(max(satMul(int(t[fanin[0]]), int(t[fanin[1]])), 1))
	case netlist.Xor:
		return int32(max(satAdd(int(t[fanin[0]]), int(t[fanin[1]])), 1))
	}
	f := func(i int) int { return int(t[fanin[i]]) }
	var b int
	switch typ {
	case netlist.Buf:
		b = f(0)
	case netlist.Not:
		b = satAdd(f(0), 1)
	case netlist.Xnor:
		b = satAdd(satAdd(f(0), f(1)), 1)
	case netlist.Or:
		b = satAdd(satAdd(f(0), f(1)), satMul(f(0), f(1)))
	case netlist.Nand:
		b = satAdd(satMul(f(0), f(1)), 1)
	case netlist.Nor:
		b = satAdd(satAdd(satAdd(f(0), f(1)), satMul(f(0), f(1))), 1)
	case netlist.Aoi21: // !(f0·f1 + f2)
		or := satAdd(satMul(f(0), f(1)), satAdd(f(2), satMul(satMul(f(0), f(1)), f(2))))
		b = satAdd(or, 1)
	case netlist.Oai21: // !((f0+f1)·f2)
		or := satAdd(satAdd(f(0), f(1)), satMul(f(0), f(1)))
		b = satAdd(satMul(or, f(2)), 1)
	case netlist.Aoi22: // !(f0·f1 + f2·f3)
		p, q := satMul(f(0), f(1)), satMul(f(2), f(3))
		b = satAdd(satAdd(satAdd(p, q), satMul(p, q)), 1)
	case netlist.Oai22: // !((f0+f1)·(f2+f3))
		p := satAdd(satAdd(f(0), f(1)), satMul(f(0), f(1)))
		q := satAdd(satAdd(f(2), f(3)), satMul(f(2), f(3)))
		b = satAdd(satMul(p, q), 1)
	case netlist.Mux: // f2 ? f1 : f0  =  f2·f1 ^ f2·f0 ^ f0
		b = satAdd(satAdd(satMul(f(2), f(1)), satMul(f(2), f(0))), f(0))
	case netlist.Lut:
		// Worst case: every minterm survives — product of (fanin bound
		// + 1) monomial choices, capped.
		b = 1
		for i := range fanin {
			b = satMul(b, satAdd(f(i), 1))
		}
	default:
		b = costCap
	}
	return int32(max(b, 1))
}

// predictCones computes the per-output cost table plus suggested governor
// defaults, and is also responsible for the blowup-risk finding (emitted by
// checkConeCost via the shared context). The result is memoized on the
// context: both the cone-cost rule and the report assembly need it.
func predictCones(c *Context) (cones []ConeCost, budget int, deadlineMS int64) {
	if c.conesOnce {
		return c.cones, c.coneBudget, c.coneDeadlines
	}
	c.conesOnce = true
	defer func() { c.cones, c.coneBudget, c.coneDeadlines = cones, budget, deadlineMS }()

	outs := c.N.Outputs()
	if len(outs) == 0 {
		return nil, 0, 0
	}
	bounds := c.scan.bounds
	c.indexCones()
	sizes := c.N.ConeSizes() // the netlist's cone index, shared with rewrite
	names := c.N.OutputNames()
	sems := c.Sem()
	maxPeak, maxGates := 0, 0
	for i, id := range outs {
		depth := 0
		if id < len(c.Levels) {
			depth = int(c.Levels[id])
		}
		of := sems.Outputs[i]
		peak, method := int(bounds[id]), "term-bound"
		if db := degreeBound(of.SupportSize, of.DegTot); db < peak {
			peak, method = db, "degree"
		}
		cc := ConeCost{
			Output:             i,
			Gates:              sizes[i],
			Depth:              depth,
			PredictedPeakTerms: peak,
			Saturated:          peak >= costCap,
			DegA:               of.DegA,
			DegB:               of.DegB,
			DegTot:             of.DegTot,
			Method:             method,
		}
		if i < len(names) {
			cc.Name = names[i]
		}
		cones = append(cones, cc)
		if cc.PredictedPeakTerms > maxPeak {
			maxPeak = cc.PredictedPeakTerms
		}
		if cc.Gates > maxGates {
			maxGates = cc.Gates
		}
	}
	// Budget: slack over the worst predicted peak, clamped. A saturated
	// estimate keeps the cap — the point is to abort, not to admit.
	budget = maxPeak
	if budget < costCap {
		budget = satMul(budget, budgetSlack)
	}
	if budget < budgetFloor {
		budget = budgetFloor
	}
	if budget > budgetCeil {
		budget = budgetCeil
	}
	deadline := deadlineFloor + time.Duration(maxGates)*deadlinePerGate
	return cones, budget, int64(deadline / time.Millisecond)
}

// checkConeCost renders the cost table into findings: one info summary and,
// for saturated cones, a blowup-risk warning naming the offenders.
func checkConeCost(c *Context) []Finding {
	cones, budget, deadlineMS := predictCones(c)
	if len(cones) == 0 {
		return nil
	}
	maxPeak, maxGates, maxDepth := 0, 0, 0
	var saturated []int
	for _, cc := range cones {
		if cc.PredictedPeakTerms > maxPeak {
			maxPeak = cc.PredictedPeakTerms
		}
		if cc.Gates > maxGates {
			maxGates = cc.Gates
		}
		if cc.Depth > maxDepth {
			maxDepth = cc.Depth
		}
		if cc.Saturated {
			saturated = append(saturated, c.N.Outputs()[cc.Output])
		}
	}
	fs := []Finding{{
		Rule: "cone-cost", Severity: c.severityOf("cone-cost"),
		Message: fmt.Sprintf("%d output cones: max %d gates, depth %d, predicted peak %d terms; suggested -budget %d, -cone-timeout %s",
			len(cones), maxGates, maxDepth, maxPeak, budget, time.Duration(deadlineMS)*time.Millisecond),
	}}
	if len(saturated) > 0 {
		fs = append(fs, Finding{
			Rule: "blowup-risk", Severity: c.severityOf("blowup-risk"), Gates: capGates(saturated),
			Message: fmt.Sprintf("%d cone(s) exceed the term-growth bound (%d): rewriting will likely exhaust memory without a budget — outputs %s",
				len(saturated), costCap, nameList(c.N, saturated)),
		})
	}
	return fs
}

// Governor translates a report's suggestions into rewrite-governor values,
// filling only knobs the caller left at zero. It returns the suggested
// budget and deadline to apply (zero where the caller already chose).
func (r *Report) Governor(haveBudget int, haveDeadline time.Duration) (budget int, deadline time.Duration) {
	if haveBudget == 0 && r.SuggestedBudgetTerms > 0 {
		budget = r.SuggestedBudgetTerms
	}
	if haveDeadline == 0 && r.SuggestedConeTimeoutMS > 0 {
		deadline = time.Duration(r.SuggestedConeTimeoutMS) * time.Millisecond
	}
	return budget, deadline
}
