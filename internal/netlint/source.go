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

// Source-level analysis. The netlist constructors enforce acyclicity and
// single drivers *by rejecting the input*, so a constructed DAG can never
// exhibit the defects the cycle / multi-driven / undriven rules look for.
// To diagnose them with a useful witness instead of a bare parse error, we
// scan the raw EQN/BLIF text into a name-level dependency graph first and
// run the structural rules there; only a source-clean design is then handed
// to the real reader for DAG-level analysis.

// rawStmt is one signal definition in the raw text.
type rawStmt struct {
	lhs  string
	deps []string
	line int
}

// rawDesign is the name-level view of a netlist file.
type rawDesign struct {
	format  string // "eqn", "blif", "verilog"
	inputs  map[string]int
	outputs []string // declared output names, in order
	outLine map[string]int
	stmts   []rawStmt
}

// scanEQN tokenizes equation text into raw statements without building
// gates. It is deliberately lenient — unknown characters are separators —
// because its job is dependency extraction, not validation; the real parser
// still runs afterwards on source-clean designs.
func scanEQN(data []byte) *rawDesign {
	raw := &rawDesign{format: "eqn", inputs: map[string]int{}, outLine: map[string]int{}}
	type token struct {
		text string
		line int
	}
	var toks []token
	line := 0
	for _, ln := range strings.Split(string(data), "\n") {
		line++
		if i := strings.IndexByte(ln, '#'); i >= 0 {
			ln = ln[:i]
		}
		if i := strings.Index(ln, "//"); i >= 0 {
			ln = ln[:i]
		}
		for i := 0; i < len(ln); {
			c := ln[i]
			switch {
			case c == ';' || c == '=':
				toks = append(toks, token{string(c), line})
				i++
			case isEqnIdent(c):
				j := i
				for j < len(ln) && isEqnIdent(ln[j]) {
					j++
				}
				toks = append(toks, token{ln[i:j], line})
				i = j
			default:
				i++ // operators, parens, whitespace, garbage: separators
			}
		}
	}
	// Group into statements terminated by ';'.
	for i := 0; i < len(toks); {
		// Find statement extent.
		j := i
		for j < len(toks) && toks[j].text != ";" {
			j++
		}
		stmt := toks[i:j]
		i = j + 1
		if len(stmt) == 0 {
			continue
		}
		head := stmt[0]
		isDecl := head.text == "INORDER" || head.text == "OUTORDER"
		// Collect identifier tokens after '='.
		var ids []token
		seenEq := false
		for _, t := range stmt[1:] {
			if t.text == "=" {
				seenEq = true
				continue
			}
			if t.text == "0" || t.text == "1" {
				continue // constants
			}
			if seenEq {
				ids = append(ids, t)
			}
		}
		switch {
		case head.text == "INORDER":
			for _, t := range ids {
				if _, dup := raw.inputs[t.text]; !dup {
					raw.inputs[t.text] = t.line
				} else {
					// Duplicate input declaration = multi-driven; model it
					// as a second defining statement.
					raw.stmts = append(raw.stmts, rawStmt{lhs: t.text, line: t.line})
				}
			}
		case head.text == "OUTORDER":
			for _, t := range ids {
				raw.outputs = append(raw.outputs, t.text)
				raw.outLine[t.text] = t.line
			}
		case !isDecl && seenEq:
			deps := make([]string, 0, len(ids))
			for _, t := range ids {
				deps = append(deps, t.text)
			}
			raw.stmts = append(raw.stmts, rawStmt{lhs: head.text, deps: deps, line: head.line})
		}
	}
	return raw
}

func isEqnIdent(c byte) bool {
	return c == '_' || c == '[' || c == ']' || c == '.' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// scanBLIF extracts the .inputs/.outputs/.names structure; cover rows and
// unknown directives are skipped.
func scanBLIF(data []byte) *rawDesign {
	raw := &rawDesign{format: "blif", inputs: map[string]int{}, outLine: map[string]int{}}
	line, pending := 0, ""
	for _, ln := range strings.Split(string(data), "\n") {
		line++
		if i := strings.IndexByte(ln, '#'); i >= 0 {
			ln = ln[:i]
		}
		ln = strings.TrimSpace(ln)
		if pending != "" {
			ln = pending + " " + ln
			pending = ""
		}
		if strings.HasSuffix(ln, "\\") {
			pending = strings.TrimSuffix(ln, "\\")
			continue
		}
		if ln == "" {
			continue
		}
		fields := strings.Fields(ln)
		switch fields[0] {
		case ".inputs":
			for _, f := range fields[1:] {
				if _, dup := raw.inputs[f]; !dup {
					raw.inputs[f] = line
				} else {
					raw.stmts = append(raw.stmts, rawStmt{lhs: f, line: line})
				}
			}
		case ".outputs":
			for _, f := range fields[1:] {
				raw.outputs = append(raw.outputs, f)
				raw.outLine[f] = line
			}
		case ".names":
			if len(fields) < 2 {
				continue
			}
			raw.stmts = append(raw.stmts, rawStmt{
				lhs:  fields[len(fields)-1],
				deps: fields[1 : len(fields)-1],
				line: line,
			})
		}
	}
	return raw
}

// analyzeRaw runs the source-level rules on the name graph.
func analyzeRaw(raw *rawDesign, opts Options) []Finding {
	var fs []Finding

	// Index definitions: input declarations and statement LHS both drive.
	defLine := map[string]int{}     // first defining line per name
	stmtOf := map[string]*rawStmt{} // first statement per name, for cycle walk
	multiSeen := map[string]bool{}
	for name, ln := range raw.inputs {
		defLine[name] = ln
	}
	for i := range raw.stmts {
		s := &raw.stmts[i]
		if prev, ok := defLine[s.lhs]; ok {
			if !multiSeen[s.lhs] && !opts.disabled("multi-driven") {
				multiSeen[s.lhs] = true
				fs = append(fs, Finding{
					Rule: "multi-driven", Severity: SevError, Line: s.line,
					Signals: []string{s.lhs},
					Message: fmt.Sprintf("signal %q driven more than once (lines %d and %d)", s.lhs, prev, s.line),
				})
			}
			continue
		}
		defLine[s.lhs] = s.line
		stmtOf[s.lhs] = s
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
			for _, d := range raw.stmts[i].deps {
				note(d, raw.stmts[i].line)
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
			for _, d := range s.deps {
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
			walk(raw.stmts[i].lhs)
		}
		if cycle != nil {
			line := 0
			if s, ok := stmtOf[cycle[0]]; ok {
				line = s.line
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
			for _, d := range s.deps {
				if dl, ok := defLine[d]; ok && dl > s.line && !multiSeen[d] {
					count++
					if firstLine == 0 {
						firstLine, firstName = s.line, d
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

// AnalyzeSource lints a netlist file: source-level structural rules on the
// raw text, then — when the source is clean enough to construct — the full
// DAG rule set. format is "eqn", "blif", "verilog" or "" (auto-detect).
// It never returns a nil report; unreadable input yields parse findings.
func AnalyzeSource(data []byte, filename, format string, opts Options) *Report {
	if format == "" {
		format = netlist.DetectFormat(filename, data)
	}
	design := strings.TrimSuffix(filepath.Base(filename), filepath.Ext(filename))
	rep := &Report{Design: design, Source: filename}

	var raw *rawDesign
	switch format {
	case "eqn":
		raw = scanEQN(data)
	case "blif":
		raw = scanBLIF(data)
	default:
		// Verilog: no source scanner; rely on the reader + DAG rules.
	}
	if raw != nil {
		rep.Findings = append(rep.Findings, analyzeRaw(raw, opts)...)
	}
	if rep.HasErrors() {
		// The constructor would reject this input for the reasons already
		// reported; a parse finding on top would be noise.
		sortFindings(rep.Findings)
		return rep
	}

	n, err := netlist.Read(bytes.NewReader(data), format, design)
	if err != nil {
		if !opts.disabled("parse") {
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
