package netlint

import "fmt"

// Fingerprint is the XOR/AND composition classification of a netlist.
//
// GF(2^m) multiplier architectures have distinctive gate mixes. A Mastrovito
// (school-book + reduction matrix) multiplier computes all m^2 partial
// products a_i·b_j directly from primary inputs and sums them through XOR
// trees: ~m^2 ANDs, nearly all fed by two primary inputs, almost no other
// cell types. A Montgomery multiplier interleaves a second product stage, so
// a large share of its AND gates read *internal* signals. Synthesized or
// technology-mapped designs pull in complemented and complex cells (NAND,
// AOI, MUX, ...) that neither hand-structured form contains.
type Fingerprint struct {
	// Class is one of mastrovito, montgomery, synthesized, unknown.
	Class string `json:"class"`
	// Confidence in [0,1], heuristic.
	Confidence float64 `json:"confidence"`
	// Evidence summarizes the signals behind the call.
	Evidence string `json:"evidence"`
	// Gate-mix statistics backing the classification.
	Xors          int `json:"xors"`
	Ands          int `json:"ands"`
	PartialAnds   int `json:"partial_ands"`  // ANDs with both fanins primary inputs
	InternalAnds  int `json:"internal_ands"` // ANDs with at least one internal fanin
	ComplexCells  int `json:"complex_cells"` // NAND/NOR/XNOR/AOI/OAI/MUX/LUT/NOT
	Combinational int `json:"combinational"` // total non-input, non-const gates
}

// fingerprint computes the classification from the gate mix counted by
// newContext's sweep.
func (c *Context) fingerprint() (fp Fingerprint) {
	// Memoized: the fingerprint rule and the report both need it.
	if c.fp != nil {
		return *c.fp
	}
	defer func() { c.fp = &fp }()
	sc := &c.scan
	fp = Fingerprint{
		Class: "unknown",
		Xors:  sc.xors, Ands: sc.ands, PartialAnds: sc.partialAnds, InternalAnds: sc.internalAnds,
		ComplexCells: sc.complexCells, Combinational: sc.combinational,
	}
	if fp.Combinational == 0 {
		fp.Evidence = "no combinational gates"
		return fp
	}
	m := len(c.N.Outputs())
	complexFrac := float64(fp.ComplexCells) / float64(fp.Combinational)
	// Depth above serialDepth indicates bit-serial chains rather than
	// balanced trees; the logarithmic floor keeps small fields (whose tree
	// depth rivals m) from tripping it.
	serialDepth := m
	if lg := 3*bitLen(m) + 4; lg > serialDepth {
		serialDepth = lg
	}
	switch {
	case complexFrac > 0.05:
		// Hand-structured multipliers are pure AND/XOR; a complemented or
		// complex-cell population means a synthesis tool has been here.
		fp.Class = "synthesized"
		fp.Confidence = 0.5 + 0.5*minF(complexFrac*2, 1)
		fp.Evidence = fmt.Sprintf("%.0f%% complex/complemented cells (%d of %d)", complexFrac*100, fp.ComplexCells, fp.Combinational)
	case m >= 2 && fp.PartialAnds >= (3*m*m)/4 && fp.InternalAnds <= m*m/8 && c.Depth < serialDepth:
		// Near-complete partial-product plane reduced through shallow
		// (logarithmic-depth) XOR trees: school-book products + reduction
		// matrix = Mastrovito. Generated designs sit at depth ~2·log2(m)+2.
		fp.Class = "mastrovito"
		fp.Confidence = minF(float64(fp.PartialAnds)/float64(m*m), 1)
		fp.Evidence = fmt.Sprintf("%d/%d partial products a_i*b_j, depth %d (balanced reduction trees)", fp.PartialAnds, m*m, c.Depth)
	case m >= 2 && fp.Ands >= m && (c.Depth >= serialDepth || fp.InternalAnds > m):
		// Either the long serial XOR chains of flattened bit-serial MonPro
		// blocks (depth grows ~2m, vs ~log m for Mastrovito) or a second
		// multiplying stage over internal signals: Montgomery.
		fp.Class = "montgomery"
		if c.Depth >= serialDepth {
			fp.Confidence = minF(float64(c.Depth)/float64(2*m), 1) * 0.9
			fp.Evidence = fmt.Sprintf("depth %d >= %d: serial XOR chains (bit-serial MonPro)", c.Depth, serialDepth)
		} else {
			fp.Confidence = minF(float64(fp.InternalAnds)/float64(fp.Ands), 1) * 0.8
			fp.Evidence = fmt.Sprintf("%d of %d ANDs read internal signals (second product stage)", fp.InternalAnds, fp.Ands)
		}
	default:
		fp.Evidence = fmt.Sprintf("%d XOR, %d AND (%d partial, %d internal), %d complex of %d gates",
			fp.Xors, fp.Ands, fp.PartialAnds, fp.InternalAnds, fp.ComplexCells, fp.Combinational)
	}
	return fp
}

func bitLen(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// checkFingerprint surfaces the classification as an info finding so it
// appears in rendered reports alongside rule output.
func checkFingerprint(c *Context) []Finding {
	fp := c.fingerprint()
	return []Finding{{
		Rule: "fingerprint", Severity: c.severityOf("fingerprint"),
		Message: fmt.Sprintf("architecture %s (confidence %.2f): %s", fp.Class, fp.Confidence, fp.Evidence),
	}}
}
