package netlint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"

	"github.com/galoisfield/gfre/internal/netlist"
)

// Source-level analysis. The netlist readers enforce acyclicity, single
// drivers and define-before-use *by rejecting the input*, so a constructed
// DAG can never exhibit the defects the cycle / multi-driven / undriven /
// topo-order rules look for. A file the reader accepts therefore goes
// straight to DAG-level analysis; a rejected EQN or BLIF file is explained
// by running those rules on the name graph of its statements, as the
// format's own reader tokenizes them (netlist.WalkEQN, netlist.WalkBLIF),
// so the report carries a witness instead of a bare parse error.

// rawDesign is the name-level view of a netlist file.
type rawDesign struct {
	format  string         // "eqn", "blif", "verilog"
	inputs  map[string]int // first declaring line per input
	outputs []string       // declared output names, in order
	outLine map[string]int
	stmts   []netlist.Statement // definitions, and repeated input declarations
}

// walkSource builds the name graph of an EQN or BLIF text; other formats
// have none, and yield an empty one.
func walkSource(data []byte, format string) *rawDesign {
	raw := &rawDesign{format: format, inputs: map[string]int{}, outLine: map[string]int{}}
	visit := func(s netlist.Statement) {
		switch s.Kind {
		case 'i':
			if _, dup := raw.inputs[s.Name]; !dup {
				raw.inputs[s.Name] = s.Line
			} else {
				// A repeated input declaration drives the name again: model
				// it as a second defining statement.
				raw.stmts = append(raw.stmts, s)
			}
		case 'o':
			raw.outputs = append(raw.outputs, s.Name)
			raw.outLine[s.Name] = s.Line
		default:
			raw.stmts = append(raw.stmts, s)
		}
	}
	switch format {
	case "eqn":
		netlist.WalkEQN(string(data), visit)
	case "blif":
		netlist.WalkBLIF(bytes.NewReader(data), visit)
	}
	return raw
}

// analyzeRaw runs the source-level rules on the name graph.
func analyzeRaw(raw *rawDesign, opts Options) []Finding {
	var fs []Finding

	// Index definitions: input declarations and statement LHS both drive.
	defLine := map[string]int{}               // first defining line per name
	stmtOf := map[string]*netlist.Statement{} // first statement per name, for cycle walk
	multiSeen := map[string]bool{}
	for name, ln := range raw.inputs {
		defLine[name] = ln
	}
	for i := range raw.stmts {
		s := &raw.stmts[i]
		if prev, ok := defLine[s.Name]; ok {
			if !multiSeen[s.Name] && !opts.disabled("multi-driven") {
				multiSeen[s.Name] = true
				fs = append(fs, Finding{
					Rule: "multi-driven", Severity: SevError, Line: s.Line,
					Signals: []string{s.Name},
					Message: fmt.Sprintf("signal %q driven more than once (lines %d and %d)", s.Name, prev, s.Line),
				})
			}
			continue
		}
		defLine[s.Name] = s.Line
		stmtOf[s.Name] = s
	}

	// Undriven: referenced or declared-as-output but never defined.
	if !opts.disabled("undriven") {
		undriven := map[string]int{} // name -> first use line
		note := func(name string, line int) {
			if _, defined := defLine[name]; defined {
				return
			}
			if _, seen := undriven[name]; !seen {
				undriven[name] = line
			}
		}
		for i := range raw.stmts {
			for _, d := range raw.stmts[i].Deps {
				note(d, raw.stmts[i].Line)
			}
		}
		for _, o := range raw.outputs {
			note(o, raw.outLine[o])
		}
		if len(undriven) > 0 {
			names := make([]string, 0, len(undriven))
			first := 0
			for n, ln := range undriven {
				names = append(names, n)
				if first == 0 || ln < first {
					first = ln
				}
			}
			sortStrings(names)
			shown := names
			if len(shown) > maxWitness {
				shown = shown[:maxWitness]
			}
			fs = append(fs, Finding{
				Rule: "undriven", Severity: SevError, Line: first, Signals: shown,
				Message: fmt.Sprintf("%d signal(s) referenced but never driven: %s", len(names), strings.Join(shown, " ")),
			})
		}
	}

	// Cycles: DFS over lhs -> deps edges (edges into inputs terminate).
	if !opts.disabled("cycle") {
		const (
			unvisited = 0
			visiting  = 1
			done      = 2
		)
		state := map[string]int{}
		var stack []string
		var cycle []string
		var walk func(name string) bool // true once a cycle is recorded
		walk = func(name string) bool {
			s, ok := stmtOf[name]
			if !ok {
				return false // input or undriven: no outgoing edges
			}
			switch state[name] {
			case visiting:
				// Back-edge: the witness is the stack suffix from `name`.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == name {
						cycle = append(append([]string{}, stack[i:]...), name)
						return true
					}
				}
				cycle = []string{name, name}
				return true
			case done:
				return false
			}
			state[name] = visiting
			stack = append(stack, name)
			for _, d := range s.Deps {
				if walk(d) {
					return true
				}
			}
			stack = stack[:len(stack)-1]
			state[name] = done
			return false
		}
		// Deterministic start order: statement order.
		for i := range raw.stmts {
			if cycle != nil {
				break
			}
			stack = stack[:0]
			walk(raw.stmts[i].Name)
		}
		if cycle != nil {
			line := 0
			if s, ok := stmtOf[cycle[0]]; ok {
				line = s.Line
			}
			shown := cycle
			if len(shown) > maxWitness {
				shown = append(append([]string{}, shown[:maxWitness]...), "...", cycle[len(cycle)-1])
			}
			fs = append(fs, Finding{
				Rule: "cycle", Severity: SevError, Line: line, Signals: shown,
				Message: fmt.Sprintf("combinational cycle: %s", strings.Join(shown, " -> ")),
			})
		}
	}

	// Topological order (EQN only: its reader requires define-before-use).
	if raw.format == "eqn" && !opts.disabled("topo-order") {
		count, firstLine, firstName := 0, 0, ""
		for i := range raw.stmts {
			s := &raw.stmts[i]
			for _, d := range s.Deps {
				if dl, ok := defLine[d]; ok && dl > s.Line && !multiSeen[d] {
					count++
					if firstLine == 0 {
						firstLine, firstName = s.Line, d
					}
					break
				}
			}
		}
		if count > 0 {
			fs = append(fs, Finding{
				Rule: "topo-order", Severity: SevWarn, Line: firstLine, Signals: []string{firstName},
				Message: fmt.Sprintf("%d statement(s) use signals defined later (first: %q at line %d); the EQN reader requires topological order", count, firstName, firstLine),
			})
		}
	}

	return fs
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AnalyzeSource lints a netlist file: the full DAG rule set when the
// format's reader accepts it, and otherwise the source-level rules, which
// explain the rejection, or a parse finding when they find nothing. format
// is "eqn", "blif", "verilog" or "" (auto-detect). It never returns a nil
// report.
func AnalyzeSource(data []byte, filename, format string, opts Options) *Report {
	if format == "" {
		format = netlist.DetectFormat(filename, data)
	}
	design := strings.TrimSuffix(filepath.Base(filename), filepath.Ext(filename))
	rep := &Report{Design: design, Source: filename}

	n, err := netlist.Read(bytes.NewReader(data), format, design)
	if err != nil {
		rep.Findings = analyzeRaw(walkSource(data, format), opts)
		// Source errors say why the reader rejected the file; a parse
		// finding on top would be noise.
		if !rep.HasErrors() && !opts.disabled("parse") {
			rep.Findings = append(rep.Findings, Finding{
				Rule: "parse", Severity: SevError,
				Message: fmt.Sprintf("netlist does not parse: %v", err),
			})
		}
		sortFindings(rep.Findings)
		return rep
	}

	dag := Analyze(n, opts)
	rep.Design = dag.Design
	if rep.Design == "" {
		rep.Design = design
	}
	rep.Findings = append(rep.Findings, dag.Findings...)
	// The report names the file's bytes, while the semantic sweep is cached
	// under the canonical netlist hash, so gfred's admission lint of a
	// submission and the execution lint of the netlist parsed from it
	// share one sweep.
	sum := sha256.Sum256(data)
	rep.ContentHash = hex.EncodeToString(sum[:])
	rep.Fingerprint = dag.Fingerprint
	rep.Algebra = dag.Algebra
	rep.Cones = dag.Cones
	rep.SuggestedBudgetTerms = dag.SuggestedBudgetTerms
	rep.SuggestedConeTimeoutMS = dag.SuggestedConeTimeoutMS
	sortFindings(rep.Findings)
	return rep
}
