// Package netlint is a rule-based static analyzer for gate-level netlists:
// the preflight stage of the extraction pipeline.
//
// The paper's algorithms assume the input is a well-formed, acyclic GF(2^m)
// multiplier; on anything else — a truncated export, a multi-driven signal,
// an adversarially obfuscated design — the failure only surfaces *during*
// backward rewriting, after real CPU has been spent (a term budget trips or
// a cone times out). netlint catches structural defects in milliseconds,
// before any rewriting starts:
//
//   - source-level rules (combinational cycles with a witness path,
//     multi-driven signals, undriven/dangling references) run on the raw
//     EQN/BLIF text, where defects the constructors reject by design are
//     still observable;
//   - DAG-level rules (dead gates, unused inputs, constant-foldable and
//     redundant gates, operand/result shape and naming conventions) run on
//     the constructed netlist;
//   - an XOR/AND composition fingerprint classifies the multiplier
//     architecture (Mastrovito vs Montgomery vs synthesized vs unknown);
//   - a cone-cost predictor estimates per-output rewriting cost (fanin-cone
//     size, depth, a term-growth bound) and derives principled defaults for
//     the rewriting governor's -budget / -cone-timeout knobs.
//
// Findings carry a severity (error / warn / info). Error findings mean the
// pipeline cannot or should not run (Report.Err wraps ErrFindings for
// errors.Is); warnings flag suspicious-but-runnable structure; infos are
// advisory. Renderers produce human text, JSON (Report marshals directly),
// and SARIF 2.1.0 for code-scanning UIs.
package netlint

import (
	"errors"
	"fmt"
	"strings"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
)

// Severity classifies a finding.
type Severity string

const (
	// SevError findings block the pipeline: the netlist is structurally
	// unusable (cycle, multi-driven, undriven) or cannot be a multiplier.
	SevError Severity = "error"
	// SevWarn findings are suspicious but runnable (dead logic, blowup risk).
	SevWarn Severity = "warn"
	// SevInfo findings are advisory (naming, fingerprint, cost prediction).
	SevInfo Severity = "info"
)

// rank orders severities for comparisons (error > warn > info).
func (s Severity) rank() int {
	switch s {
	case SevError:
		return 2
	case SevWarn:
		return 1
	}
	return 0
}

// ErrFindings is the sentinel wrapped by Report.Err when error-level
// findings exist; callers route it to "reject the input" handling (exit
// code 2 in gfre, HTTP 422 in gfred) with errors.Is.
var ErrFindings = errors.New("netlint: netlist failed preflight")

// Finding is one rule violation or observation.
type Finding struct {
	// Rule is the registry name of the rule that produced the finding.
	Rule string `json:"rule"`
	// Severity is error, warn or info.
	Severity Severity `json:"severity"`
	// Message is the human-readable diagnosis, including the witness
	// (cycle path, duplicate definition sites, dead gate names).
	Message string `json:"message"`
	// Gates lists the implicated gate IDs (DAG rules; capped).
	Gates []int `json:"gates,omitempty"`
	// Signals lists the implicated signal names (capped).
	Signals []string `json:"signals,omitempty"`
	// Line is the 1-based source line of the defect (source rules only).
	Line int `json:"line,omitempty"`
}

// Rule is one registered analysis. Source rules (cycle, multi-driven,
// undriven, parse) have a nil Check: they run inside AnalyzeSource where raw
// text is available, but are registered so Rules() describes the full set.
type Rule struct {
	// Name identifies the rule in findings and filters.
	Name string
	// Doc is a one-line description.
	Doc string
	// Default is the severity the rule's findings carry.
	Default Severity
	// Source marks rules that run on raw netlist text, before construction.
	Source bool
	// Check produces the rule's findings for a constructed netlist
	// (nil for source rules).
	Check func(*Context) []Finding
}

// Context carries the netlist plus analysis results shared across rules,
// computed once per Analyze call.
type Context struct {
	N    *netlist.Netlist
	Opts Options

	// Levels / Depth are netlist.Levels().
	Levels []int
	Depth  int
	// Reach[id] reports whether gate id lies in some output's fanin cone.
	Reach []bool
	// Fanout[id] is the number of readers of gate id (output markings count
	// as one reader each).
	Fanout []int

	// Memoized cone-cost prediction: predictCones is needed both by the
	// cone-cost rule and for the report's suggestions.
	conesOnce     bool
	cones         []ConeCost
	coneBudget    int
	coneDeadlines int64

	// Memoized semantic sweep, shared by the semantic rules and the cost
	// predictor (see Sem in semantics.go).
	semOnce bool
	sem     *sem.Result
}

// Options configures an analysis run.
type Options struct {
	// RequireMultiplier escalates the io-shape rule to error severity: the
	// netlist must look like a GF(2^m) multiplier (m >= 2 outputs, 2m
	// inputs) or the report blocks. The extraction pipeline sets this; the
	// standalone linter leaves it off by default.
	RequireMultiplier bool
	// Disabled names rules to skip.
	Disabled []string
	// ContentHash is a precomputed digest of the netlist content (source
	// bytes or canonical form). It keys the semantic sweep's cache and is
	// echoed in the report; when empty, the canonical netlist hash is
	// computed on demand.
	ContentHash string
}

func (o Options) disabled(name string) bool {
	for _, d := range o.Disabled {
		if d == name {
			return true
		}
	}
	return false
}

// maxWitness bounds the gates/signals listed per finding so a degenerate
// design cannot turn the report itself into a memory problem.
const maxWitness = 16

// registry holds every known rule, in execution order. Populated in init to
// break the initialization cycle between rule check funcs (which consult the
// registry for severities) and the registry itself.
var registry []Rule

func init() {
	registry = []Rule{
		{Name: "parse", Doc: "netlist text must parse (syntax, arity, known cells)", Default: SevError, Source: true},
		{Name: "cycle", Doc: "combinational logic must be acyclic (witness: the cycle path)", Default: SevError, Source: true},
		{Name: "multi-driven", Doc: "every signal must have exactly one driver", Default: SevError, Source: true},
		{Name: "undriven", Doc: "every referenced signal must be defined (no dangling wires)", Default: SevError, Source: true},
		{Name: "topo-order", Doc: "definitions should appear in topological order (readers require it)", Default: SevWarn, Source: true},
		{Name: "io-shape", Doc: "multiplier shape: m >= 2 outputs and exactly 2m inputs", Default: SevWarn, Check: checkIOShape},
		{Name: "io-naming", Doc: "operand/result naming convention: a<i>/b<i> inputs, z<i> outputs, contiguous bit vectors", Default: SevInfo, Check: checkIONaming},
		{Name: "dead-gate", Doc: "gates unreachable from any primary output", Default: SevWarn, Check: checkDeadGates},
		{Name: "unused-input", Doc: "primary inputs no output depends on", Default: SevWarn, Check: checkUnusedInputs},
		{Name: "const-gate", Doc: "constant and constant-foldable gates (synthesis leftovers)", Default: SevWarn, Check: checkConstGates},
		{Name: "redundant-gate", Doc: "self-cancelling, duplicate and pass-through gates", Default: SevInfo, Check: checkRedundantGates},
		{Name: "fingerprint", Doc: "XOR/AND composition fingerprint: multiplier architecture classification", Default: SevInfo, Check: checkFingerprint},
		{Name: "blowup-risk", Doc: "term-growth estimate saturated: rewriting may explode without a budget", Default: SevWarn, Check: nil}, // emitted by cone-cost
		{Name: "cone-cost", Doc: "per-output cone size, depth and predicted peak terms", Default: SevInfo, Check: checkConeCost},
		{Name: "nonlinear-cone", Doc: "output ANF degree exceeds the bilinear bound of a GF(2^m) multiplier", Default: SevWarn, Check: checkNonlinearCone},
		{Name: "key-gate", Doc: "non-operand input gates an output: logic-locking key signature", Default: SevWarn, Check: checkKeyGate},
		{Name: "opaque-constant", Doc: "key-only logic feeding the datapath: opaque constant under any fixed key", Default: SevWarn, Check: checkOpaqueConstant},
		{Name: "dead-by-algebra", Doc: "gates provably constant by reconvergent cancellation (beyond constant folding)", Default: SevWarn, Check: checkDeadByAlgebra},
	}
}

// Rules returns a copy of the rule registry, for documentation and CLIs.
func Rules() []Rule { return append([]Rule(nil), registry...) }

// Register appends a custom rule; it runs after the built-in set. Intended
// for downstream tools embedding the linter.
func Register(r Rule) { registry = append(registry, r) }

// Report is the outcome of linting one netlist.
type Report struct {
	// Design is the netlist's model name.
	Design string `json:"design"`
	// Source is the originating file path, when linted from a file (used by
	// the SARIF renderer for artifact locations).
	Source string `json:"source,omitempty"`
	// Findings holds every rule violation/observation, severity-sorted
	// (errors first), then rule name, then witness order.
	Findings []Finding `json:"findings"`
	// ContentHash is the digest keying the semantic sweep's cache: the
	// source-byte digest when linted from a file, else the canonical
	// netlist hash.
	ContentHash string `json:"content_hash,omitempty"`
	// Fingerprint is the architecture classification.
	Fingerprint Fingerprint `json:"fingerprint"`
	// Algebra is the semantic sweep's digest: operand partition, per-output
	// degree bounds, key findings.
	Algebra *AlgebraSummary `json:"algebra,omitempty"`
	// Cones holds the per-output cost predictions (empty when the netlist
	// could not be constructed).
	Cones []ConeCost `json:"cones,omitempty"`
	// SuggestedBudgetTerms is the derived default for the rewriting
	// governor's per-cone term budget (0 = no suggestion).
	SuggestedBudgetTerms int `json:"suggested_budget_terms,omitempty"`
	// SuggestedConeTimeoutMS is the derived default per-cone deadline in
	// milliseconds (0 = no suggestion).
	SuggestedConeTimeoutMS int64 `json:"suggested_cone_timeout_ms,omitempty"`
}

// Counts tallies findings by severity.
func (r *Report) Counts() map[Severity]int {
	c := map[Severity]int{}
	for _, f := range r.Findings {
		c[f.Severity]++
	}
	return c
}

// HasErrors reports whether any error-severity finding exists.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// MaxSeverity returns the highest severity present ("" when clean).
func (r *Report) MaxSeverity() Severity {
	var max Severity
	for _, f := range r.Findings {
		if max == "" || f.Severity.rank() > max.rank() {
			max = f.Severity
		}
	}
	return max
}

// Err returns nil when no error-severity findings exist, otherwise an error
// wrapping ErrFindings that quotes the first offending findings.
func (r *Report) Err() error {
	var msgs []string
	n := 0
	for _, f := range r.Findings {
		if f.Severity != SevError {
			continue
		}
		n++
		if len(msgs) < 3 {
			msgs = append(msgs, fmt.Sprintf("[%s] %s", f.Rule, f.Message))
		}
	}
	if n == 0 {
		return nil
	}
	suffix := ""
	if n > len(msgs) {
		suffix = fmt.Sprintf("; and %d more", n-len(msgs))
	}
	return fmt.Errorf("%w: %d error finding(s): %s%s", ErrFindings, n, strings.Join(msgs, "; "), suffix)
}

// MaxPredictedPeak returns the largest predicted per-cone peak term count
// (0 when no prediction ran).
func (r *Report) MaxPredictedPeak() int {
	max := 0
	for _, c := range r.Cones {
		if c.PredictedPeakTerms > max {
			max = c.PredictedPeakTerms
		}
	}
	return max
}

// Analyze runs every registered DAG rule on a constructed netlist. Source
// rules (cycle / multi-driven / undriven) cannot fire here — the netlist
// constructors enforce those invariants — so lint raw files with
// AnalyzeSource to get them.
func Analyze(n *netlist.Netlist, opts Options) *Report {
	if opts.ContentHash == "" {
		// Best effort: an unserializable netlist just runs uncached.
		if h, err := checkpoint.HashNetlist(n); err == nil {
			opts.ContentHash = h
		}
	}
	rep := &Report{Design: n.Name, ContentHash: opts.ContentHash}
	ctx := newContext(n, opts)
	for _, rule := range registry {
		if rule.Check == nil || opts.disabled(rule.Name) {
			continue
		}
		rep.Findings = append(rep.Findings, rule.Check(ctx)...)
	}
	rep.Fingerprint = ctx.fingerprint()
	rep.Algebra = buildAlgebra(ctx)
	rep.Cones, rep.SuggestedBudgetTerms, rep.SuggestedConeTimeoutMS = predictCones(ctx)
	sortFindings(rep.Findings)
	return rep
}

// newContext computes the shared analysis state once.
func newContext(n *netlist.Netlist, opts Options) *Context {
	ctx := &Context{N: n, Opts: opts}
	ctx.Levels, ctx.Depth = n.Levels()
	ctx.Fanout = make([]int, n.NumGates())
	for id := 0; id < n.NumGates(); id++ {
		for _, f := range n.Gate(id).Fanin {
			ctx.Fanout[f]++
		}
	}
	// Reachability: reverse walk from the outputs. Gates are topologically
	// ordered, so one descending sweep settles the whole DAG.
	ctx.Reach = make([]bool, n.NumGates())
	for _, out := range n.Outputs() {
		ctx.Reach[out] = true
		ctx.Fanout[out]++
	}
	for id := n.NumGates() - 1; id >= 0; id-- {
		if !ctx.Reach[id] {
			continue
		}
		for _, f := range n.Gate(id).Fanin {
			ctx.Reach[f] = true
		}
	}
	return ctx
}

// severityOf returns the effective severity for a rule, honoring the
// RequireMultiplier escalation of io-shape.
func (c *Context) severityOf(rule string) Severity {
	for _, r := range registry {
		if r.Name != rule {
			continue
		}
		if rule == "io-shape" && c.Opts.RequireMultiplier {
			return SevError
		}
		return r.Default
	}
	return SevWarn
}

// sortFindings orders errors first, then warnings, then infos; stable within
// a severity so rule execution order is preserved.
func sortFindings(fs []Finding) {
	// Insertion sort: finding lists are small and mostly ordered already.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Severity.rank() > fs[j-1].Severity.rank(); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// nameList renders up to maxWitness gate names for a witness message.
func nameList(n *netlist.Netlist, ids []int) string {
	var parts []string
	for i, id := range ids {
		if i == maxWitness {
			parts = append(parts, fmt.Sprintf("... %d more", len(ids)-i))
			break
		}
		parts = append(parts, n.NameOf(id))
	}
	return strings.Join(parts, " ")
}

// capGates returns at most maxWitness IDs for the Finding.Gates field.
func capGates(ids []int) []int {
	if len(ids) > maxWitness {
		ids = ids[:maxWitness]
	}
	return append([]int(nil), ids...)
}
