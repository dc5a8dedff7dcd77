package netlint

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
)

// checkIOShape verifies the netlist has plausible multiplier I/O widths:
// m >= 2 result bits and exactly 2m operand bits. With RequireMultiplier
// the finding is an error (the extraction pipeline cannot run Algorithm 2
// on anything else); standalone linting reports a warning.
func checkIOShape(c *Context) []Finding {
	sev := c.severityOf("io-shape")
	ni, no := len(c.N.Inputs()), len(c.N.Outputs())
	var fs []Finding
	if no < 2 {
		fs = append(fs, Finding{
			Rule: "io-shape", Severity: sev,
			Message: fmt.Sprintf("GF(2^m) multiplier needs m >= 2 outputs, found %d", no),
		})
	}
	if no >= 2 && ni != 2*no {
		// A locked design legitimately carries extra inputs: when the
		// semantic sweep partitions exactly 2m operand bits and attributes
		// every surplus input to the non-operand class, the precise
		// diagnosis is the key-gate warning, not a shape error — extraction
		// can still run once the keys are bound.
		if r := c.Sem(); ni > 2*no && r.Ports.Partitioned &&
			r.Ports.AWidth+r.Ports.BWidth == 2*no && len(r.Ports.KeyInputs) == ni-2*no {
			fs = append(fs, Finding{
				Rule: "io-shape", Severity: SevWarn,
				Message: fmt.Sprintf(
					"multiplier over GF(2^%d) has %d operand inputs (%s, %s) plus %d non-operand input(s) — see key-gate",
					no, 2*no, r.Ports.APrefix, r.Ports.BPrefix, ni-2*no),
			})
		} else {
			fs = append(fs, Finding{
				Rule: "io-shape", Severity: sev,
				Message: fmt.Sprintf("multiplier over GF(2^%d) needs 2m = %d inputs (operands a, b), found %d", no, 2*no, ni),
			})
		}
	}
	if ni == 0 {
		fs = append(fs, Finding{
			Rule: "io-shape", Severity: sev,
			Message: "netlist has no primary inputs; nothing to extract",
		})
	}
	return fs
}

// checkIONaming reports deviations from the a<i>/b<i>/z<i> bit-vector
// convention the port identifier relies on: inputs should form exactly two
// contiguous equal-width vectors and outputs one. Purely advisory —
// extraction falls back to positional port assignment — but a finding here
// explains why `-a/-b` prefixes may be needed.
func checkIONaming(c *Context) []Finding {
	sev := c.severityOf("io-naming")
	var fs []Finding
	group := func(ids []int, what string, wantVectors int) {
		vec := map[string][]int{} // prefix -> bit indices
		loose := []string{}
		for _, id := range ids {
			name := c.N.NameOf(id)
			if prefix, digits, ok := sem.SplitPortName(name); ok {
				bit, _ := strconv.Atoi(digits)
				vec[prefix] = append(vec[prefix], bit)
			} else {
				loose = append(loose, name)
			}
		}
		if len(loose) > 0 {
			if len(loose) > maxWitness {
				loose = loose[:maxWitness]
			}
			fs = append(fs, Finding{
				Rule: "io-naming", Severity: sev, Signals: loose,
				Message: fmt.Sprintf("%d %s port(s) do not match the <prefix><bit> convention; port identification will be positional", len(loose), what),
			})
		}
		prefixes := make([]string, 0, len(vec))
		for p := range vec {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		if len(vec) != wantVectors && len(loose) == 0 {
			fs = append(fs, Finding{
				Rule: "io-naming", Severity: sev, Signals: prefixes,
				Message: fmt.Sprintf("expected %d %s vector(s), found %d (prefixes %v)", wantVectors, what, len(vec), prefixes),
			})
		}
		for _, prefix := range prefixes {
			bits := vec[prefix]
			sort.Ints(bits)
			for i, b := range bits {
				if b != i {
					fs = append(fs, Finding{
						Rule: "io-naming", Severity: sev, Signals: []string{prefix},
						Message: fmt.Sprintf("%s vector %q is not a contiguous 0-based bit range (missing bit %d)", what, prefix, i),
					})
					break
				}
			}
		}
	}
	group(c.N.Inputs(), "input", 2)
	group(c.N.Outputs(), "output", 1)
	return fs
}

// checkDeadGates flags non-input gates outside every output's fanin cone:
// dead logic is at best a synthesis leftover and at worst a trojan or
// obfuscation payload, and it inflates cost predictions.
func checkDeadGates(c *Context) []Finding {
	var dead []int
	for w, live := range c.reachable() {
		for gone := ^live; gone != 0; gone &= gone - 1 {
			if id := w*64 + bits.TrailingZeros64(gone); id < len(c.types) && c.types[id] != netlist.Input {
				dead = append(dead, id)
			}
		}
	}
	if len(dead) == 0 {
		return nil
	}
	return []Finding{{
		Rule: "dead-gate", Severity: c.severityOf("dead-gate"), Gates: capGates(dead),
		Message: fmt.Sprintf("%d gate(s) unreachable from any primary output: %s", len(dead), nameList(c.N, dead)),
	}}
}

// checkUnusedInputs flags primary inputs no output depends on. A multiplier
// must depend on every operand bit; an unused input usually means the wrong
// module was exported or a port vector is mis-declared.
func checkUnusedInputs(c *Context) []Finding {
	var unused []int
	for _, id := range c.N.Inputs() {
		if !c.reached(id) {
			unused = append(unused, id)
		}
	}
	if len(unused) == 0 {
		return nil
	}
	return []Finding{{
		Rule: "unused-input", Severity: c.severityOf("unused-input"), Gates: capGates(unused),
		Message: fmt.Sprintf("%d primary input(s) feed no output: %s", len(unused), nameList(c.N, unused)),
	}}
}

// checkConstGates flags constant gates and gates that fold to a constant or
// to one of their own fanins because a fanin is constant (Const0/Const1
// reaching And/Or/Xor/...). Real multiplier cones contain no constants; their
// presence signals synthesis leftovers, tie-offs, or deliberate padding.
func checkConstGates(c *Context) []Finding {
	sev := c.severityOf("const-gate")
	var consts, foldable []int
	for _, id := range c.scan.consts {
		if c.reached(id) {
			consts = append(consts, id)
		}
	}
	for _, id := range c.scan.folds {
		if c.reached(id) {
			foldable = append(foldable, id)
		}
	}
	var fs []Finding
	if len(consts) > 0 {
		fs = append(fs, Finding{
			Rule: "const-gate", Severity: sev, Gates: capGates(consts),
			Message: fmt.Sprintf("%d constant gate(s) reachable from outputs: %s", len(consts), nameList(c.N, consts)),
		})
	}
	if len(foldable) > 0 {
		fs = append(fs, Finding{
			Rule: "const-gate", Severity: sev, Gates: capGates(foldable),
			Message: fmt.Sprintf("%d gate(s) have constant fanin and fold away: %s", len(foldable), nameList(c.N, foldable)),
		})
	}
	return fs
}

// checkRedundantGates flags structure the rewriter will cancel anyway:
// self-cancelling gates (x^x, x·x, x+x), structural duplicates (same type
// and fanin list as an earlier gate), and pass-through Buf chains. All are
// harmless to correctness but indicate a padded or scrambled design and
// inflate cone statistics.
func checkRedundantGates(c *Context) []Finding {
	sev := c.severityOf("redundant-gate")
	selfCancel, dups, bufs := c.scan.selfCancel, c.duplicates(), c.scan.bufs
	var fs []Finding
	if len(selfCancel) > 0 {
		fs = append(fs, Finding{
			Rule: "redundant-gate", Severity: sev, Gates: capGates(selfCancel),
			Message: fmt.Sprintf("%d gate(s) with identical fanins (x op x degenerates): %s", len(selfCancel), nameList(c.N, selfCancel)),
		})
	}
	if len(dups) > 0 {
		fs = append(fs, Finding{
			Rule: "redundant-gate", Severity: sev, Gates: capGates(dups),
			Message: fmt.Sprintf("%d structural duplicate gate(s) (same type and fanins as an earlier gate): %s", len(dups), nameList(c.N, dups)),
		})
	}
	if len(bufs) > 0 {
		fs = append(fs, Finding{
			Rule: "redundant-gate", Severity: sev, Gates: capGates(bufs),
			Message: fmt.Sprintf("%d pass-through buffer(s): %s", len(bufs), nameList(c.N, bufs)),
		})
	}
	return fs
}
