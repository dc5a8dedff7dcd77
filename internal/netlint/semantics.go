package netlint

import (
	"fmt"
	"sort"

	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
)

// The semantic rules sit on top of the sem abstract interpreter: one shared
// sweep per Analyze call (content-hash cached across calls), consumed by
// four rules plus the degree-driven cost predictor. Syntactic rules see gate
// shapes; these see what the gates compute.

// Sem returns the semantic sweep for the netlist under analysis, waiting for
// Analyze's concurrent run of it (or running it on first use outside
// Analyze). The result is shared by every semantic rule and the cost
// predictor, and cached across Analyze calls by content (see sem.Sweep).
func (c *Context) Sem() *sem.Result {
	if c.sweep != nil {
		c.sem = c.sweep.Wait()
		c.sweep = nil
	}
	if c.sem == nil {
		c.sem = sem.AnalyzeCached(c.N, sem.Options{})
	}
	return c.sem
}

// AlgebraSummary is the report-level digest of the semantic sweep.
type AlgebraSummary struct {
	// Partitioned reports whether two operand vectors were identified from
	// port naming; APrefix/BPrefix/AWidth/BWidth describe them.
	Partitioned bool   `json:"partitioned"`
	APrefix     string `json:"a_prefix,omitempty"`
	BPrefix     string `json:"b_prefix,omitempty"`
	AWidth      int    `json:"a_width,omitempty"`
	BWidth      int    `json:"b_width,omitempty"`
	// LinearPerOperand: every output has ANF degree <= 1 in each operand
	// vector and 0 in surplus inputs — the bilinearity a GF(2^m) multiplier
	// must satisfy.
	LinearPerOperand bool `json:"linear_per_operand"`
	// Max ANF degree bounds across outputs.
	MaxDegA   int `json:"max_deg_a"`
	MaxDegB   int `json:"max_deg_b"`
	MaxDegKey int `json:"max_deg_key"`
	MaxDegTot int `json:"max_deg_tot"`
	// KeyInputs names every input outside both operand vectors;
	// GatedKeyInputs the subset that actually reaches an output's support.
	// Unlike finding witnesses these lists are not capped — campaign
	// harnesses assert exact equality against planted keys.
	KeyInputs      []string `json:"key_inputs,omitempty"`
	GatedKeyInputs []string `json:"gated_key_inputs,omitempty"`
	// ExactOutputs counts outputs settled in the exact truth-table domain.
	ExactOutputs int `json:"exact_outputs"`
	// Widened counts support-set widening events (precision loss).
	Widened int `json:"widened,omitempty"`
	// AnalysisMicros is the semantic sweep's wall time in microseconds.
	AnalysisMicros int64 `json:"analysis_micros"`
}

// buildAlgebra assembles the report digest from the shared sweep.
func buildAlgebra(c *Context) *AlgebraSummary {
	r := c.Sem()
	s := &AlgebraSummary{
		Partitioned:      r.Ports.Partitioned,
		APrefix:          r.Ports.APrefix,
		BPrefix:          r.Ports.BPrefix,
		AWidth:           r.Ports.AWidth,
		BWidth:           r.Ports.BWidth,
		LinearPerOperand: r.LinearPerOperand(),
		Widened:          r.Widened,
		AnalysisMicros:   r.Elapsed.Microseconds(),
	}
	for _, of := range r.Outputs {
		if of.DegA > s.MaxDegA {
			s.MaxDegA = of.DegA
		}
		if of.DegB > s.MaxDegB {
			s.MaxDegB = of.DegB
		}
		if of.DegKey > s.MaxDegKey {
			s.MaxDegKey = of.DegKey
		}
		if of.DegTot > s.MaxDegTot {
			s.MaxDegTot = of.DegTot
		}
		if of.Exact {
			s.ExactOutputs++
		}
	}
	for _, id := range r.Ports.KeyInputs {
		s.KeyInputs = append(s.KeyInputs, c.N.NameOf(id))
	}
	for _, id := range r.GatedKeyInputs() {
		s.GatedKeyInputs = append(s.GatedKeyInputs, c.N.NameOf(id))
	}
	return s
}

// checkNonlinearCone flags outputs whose ANF degree exceeds what a GF(2^m)
// multiplier can produce: bilinear means degree <= 1 in each operand vector.
// Without an operand partition the rule falls back to total degree > 2, and
// only when the caller demands multiplier shape (an arbitrary circuit is
// allowed to be nonlinear).
func checkNonlinearCone(c *Context) []Finding {
	r := c.Sem()
	var fs []Finding
	emit := func(of sem.OutputFact, msg string) {
		fs = append(fs, Finding{
			Rule:     "nonlinear-cone",
			Severity: c.severityOf("nonlinear-cone"),
			Message:  msg,
			Gates:    []int{of.Gate},
			Signals:  []string{of.Name},
		})
	}
	if r.Ports.Partitioned {
		for _, of := range r.Outputs {
			if of.Const >= 0 || (of.DegA <= 1 && of.DegB <= 1) {
				continue
			}
			emit(of, fmt.Sprintf(
				"output %s has ANF degree %d in operand %s and %d in operand %s: a GF(2^m) multiplier output is bilinear (degree <= 1 in each operand)",
				of.Name, of.DegA, r.Ports.APrefix, of.DegB, r.Ports.BPrefix))
		}
		return fs
	}
	if !c.Opts.RequireMultiplier {
		return nil
	}
	for _, of := range r.Outputs {
		if of.Const >= 0 || of.DegTot <= 2 {
			continue
		}
		emit(of, fmt.Sprintf(
			"output %s has total ANF degree %d: a product bit of any bilinear function has degree <= 2",
			of.Name, of.DegTot))
	}
	return fs
}

// checkKeyGate flags surplus inputs — outside both operand vectors — whose
// value reaches an output's support: the structural signature of a
// logic-locking key. One finding per gating input, with the gated outputs
// as witness.
func checkKeyGate(c *Context) []Finding {
	r := c.Sem()
	if !r.Ports.Partitioned || len(r.Ports.KeyInputs) == 0 {
		return nil
	}
	gatedOuts := map[int][]int{} // key input gate ID -> gated output gate IDs
	for _, of := range r.Outputs {
		for _, k := range of.KeyInputs {
			gatedOuts[k] = append(gatedOuts[k], of.Gate)
		}
	}
	keys := make([]int, 0, len(gatedOuts))
	for k := range gatedOuts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var fs []Finding
	for _, k := range keys {
		outs := gatedOuts[k]
		fs = append(fs, Finding{
			Rule:     "key-gate",
			Severity: c.severityOf("key-gate"),
			Message: fmt.Sprintf(
				"input %s lies outside both operand vectors (%s[%d] x %s[%d]) yet gates %d output(s): %s — logic-locking key signature",
				c.N.NameOf(k), r.Ports.APrefix, r.Ports.AWidth, r.Ports.BPrefix, r.Ports.BWidth,
				len(outs), nameList(c.N, outs)),
			Gates:   capGates(append([]int{k}, outs...)),
			Signals: []string{c.N.NameOf(k)},
		})
	}
	return fs
}

// checkOpaqueConstant flags derived gates whose support lies wholly in
// surplus inputs feeding operand-dependent logic: their value is fixed once
// the key is chosen — an opaque constant, the other half of the
// logic-locking signature (point functions, AND trees over key bits).
func checkOpaqueConstant(c *Context) []Finding {
	r := c.Sem()
	if !r.Ports.Partitioned || len(r.Ports.KeyInputs) == 0 {
		return nil
	}
	// Boundary roots: key-only derived gates with a reader that is not
	// itself key-only (the point where the opaque value meets the datapath).
	boundary := map[int]bool{}
	for id := 0; id < c.N.NumGates(); id++ {
		if !c.reached(id) || r.KeyOnly(id) {
			continue
		}
		for _, f := range c.N.Gate(id).Fanin {
			if c.N.Gate(f).Type != netlist.Input && r.KeyOnly(f) {
				boundary[f] = true
			}
		}
	}
	if len(boundary) == 0 {
		return nil
	}
	ids := make([]int, 0, len(boundary))
	for id := range boundary {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var names []string
	for i, id := range ids {
		if i == maxWitness {
			break
		}
		names = append(names, c.N.NameOf(id))
	}
	return []Finding{{
		Rule:     "opaque-constant",
		Severity: c.severityOf("opaque-constant"),
		Message: fmt.Sprintf(
			"%d gate(s) computed entirely from non-operand inputs feed operand logic: opaque constants under any fixed key (%s)",
			len(ids), nameList(c.N, ids)),
		Gates:   capGates(ids),
		Signals: names,
	}}
}

// checkDeadByAlgebra flags gates the sweep proves constant by cancellation
// across distinct signals — reconvergent identities constant folding and the
// syntactic const-gate rule cannot see. Only cancellation roots fire;
// everything downstream is ordinary constant propagation from them.
func checkDeadByAlgebra(c *Context) []Finding {
	r := c.Sem()
	var ids []int
	for _, id := range r.AlgebraicConsts() {
		if !c.reached(id) {
			continue
		}
		// Same-signal self-cancellation (XOR(x,x) as one gate) is already
		// the redundant-gate rule's finding; algebra only claims what
		// syntax cannot.
		g := c.N.Gate(id)
		dup := false
		for i := 1; i < len(g.Fanin) && !dup; i++ {
			for j := 0; j < i; j++ {
				if g.Fanin[i] == g.Fanin[j] {
					dup = true
					break
				}
			}
		}
		if dup {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil
	}
	var fs []Finding
	for i, id := range ids {
		if i == maxWitness {
			fs = append(fs, Finding{
				Rule:     "dead-by-algebra",
				Severity: c.severityOf("dead-by-algebra"),
				Message:  fmt.Sprintf("... %d more algebraically constant gates", len(ids)-i),
			})
			break
		}
		v, _ := r.Const(id)
		val := 0
		if v {
			val = 1
		}
		fs = append(fs, Finding{
			Rule:     "dead-by-algebra",
			Severity: c.severityOf("dead-by-algebra"),
			Message: fmt.Sprintf(
				"gate %s is provably constant %d by cancellation across reconvergent paths (invisible to constant folding)",
				c.N.NameOf(id), val),
			Gates:   []int{id},
			Signals: []string{c.N.NameOf(id)},
		})
	}
	return fs
}
