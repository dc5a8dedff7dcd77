// Package gfre reverse engineers the irreducible polynomial P(x) used by a
// gate-level GF(2^m) multiplier, implementing the computer-algebra technique
// of Yu, Holcomb and Ciesielski, "Reverse Engineering of Irreducible
// Polynomials in GF(2^m) Arithmetic" (DATE 2017).
//
// The library takes a flattened combinational netlist — Mastrovito,
// Montgomery, or anything a synthesis tool produced from them — and, with no
// knowledge of the architecture:
//
//  1. rewrites every output bit backwards through its logic cone into a
//     canonical algebraic normal form (ANF), one worker per output bit;
//  2. locates the first out-field product set P_m = {a_i·b_j : i+j = m} in
//     those expressions to reconstruct P(x) = x^m + Σ{x^i : P_m ⊆ EXP_i};
//  3. verifies the netlist against a golden GF(2^m) specification built from
//     the recovered P(x) — a complete equivalence check, since ANF is
//     canonical.
//
// # Quick start
//
//	n, _ := gfre.NewMastrovito(163, gfre.MustParsePoly("x^163+x^80+x^47+x^9+1"))
//	ext, err := gfre.Extract(n, gfre.Options{Threads: 16})
//	if err != nil { ... }
//	fmt.Println(ext.P) // x^163+x^80+x^47+x^9+1, verified
//
// Netlists can also be read from equation-format or BLIF files (ReadEQN,
// ReadBLIF), generated in several architectures (NewMastrovito,
// NewMastrovitoMatrix, NewMontgomery), and run through the synthesis
// pipeline (Synthesize, TechMap) before extraction.
//
// The exported identifiers are aliases of the implementation packages under
// internal/; see their doc comments for the full API of each subsystem.
package gfre

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2m"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
	"github.com/galoisfield/gfre/internal/shard"
)

// Core types, re-exported from the implementation packages.
type (
	// Poly is a univariate polynomial over GF(2) (bit-vector backed).
	Poly = gf2poly.Poly
	// Netlist is a combinational gate-level circuit.
	Netlist = netlist.Netlist
	// GateType enumerates the supported cell functions.
	GateType = netlist.GateType
	// Field is a binary extension field GF(2^m) for golden-model arithmetic.
	Field = gf2m.Field
	// Extraction is the result of reverse engineering a multiplier.
	Extraction = extract.Extraction
	// Options configures extraction (thread count, port prefixes, verify).
	Options = extract.Options
	// RewriteResult carries per-output-bit expressions and statistics.
	RewriteResult = rewrite.Result
	// RewriteOptions configures a raw rewriting run.
	RewriteOptions = rewrite.Options
	// BitStats is the per-output-bit cost record (Figure 4's data).
	BitStats = rewrite.BitStats
	// ConeStatus classifies how a single output cone ended (ok, budget,
	// timeout, panic, cancelled, error).
	ConeStatus = rewrite.Status
	// Diagnosis is the outcome of fault-tolerant extraction: recovered
	// P(x), per-bit states, and the ranked suspect-gate set.
	Diagnosis = extract.Diagnosis
	// BitDiagnosis is the per-output-bit verdict inside a Diagnosis.
	BitDiagnosis = extract.BitDiagnosis
	// Suspect is one candidate trojan location in a Diagnosis.
	Suspect = extract.Suspect
	// MapStyle selects the technology-mapping flavor.
	MapStyle = opt.MapStyle
	// ArchPoly pairs an architecture label with its optimal polynomial.
	ArchPoly = polytab.ArchPoly

	// Recorder is the telemetry hub threaded through Options /
	// RewriteOptions: phase spans, per-bit events, metrics registry.
	// nil disables instrumentation at negligible cost.
	Recorder = obs.Recorder
	// Span is an in-flight phase timing opened by Recorder.StartSpan.
	Span = obs.Span
	// SpanRecord is one completed phase with its wall-clock cost.
	SpanRecord = obs.SpanRecord
	// TelemetryEvent is one telemetry record (the NDJSON line schema).
	TelemetryEvent = obs.Event
	// TelemetrySink consumes telemetry events (NDJSON, progress, memory).
	TelemetrySink = obs.Sink
	// MetricsSnapshot is a point-in-time copy of every recorded metric.
	MetricsSnapshot = obs.Snapshot
	// NDJSONSink streams events as one JSON object per line.
	NDJSONSink = obs.NDJSONSink
	// ProgressSink renders a live per-bit completion ticker.
	ProgressSink = obs.ProgressSink
	// MemorySink captures events in memory (the test hook).
	MemorySink = obs.MemorySink
	// Journal is the bounded replayable event log (a TelemetrySink): it
	// assigns sequence numbers and backs SSE resume and gftop tailing.
	Journal = obs.Journal
	// TraceNode is one node of the hierarchical phase/cone trace tree
	// assembled from a recorder's completed spans.
	TraceNode = obs.TraceNode
	// AnomalyConfig tunes the predicted-vs-actual cone cost anomaly stage
	// armed by Recorder.EnableConeAnomalies (zero value = defaults).
	AnomalyConfig = obs.AnomalyConfig
	// HistogramBucket is one cumulative le-bound bucket of a histogram
	// snapshot, matching the Prometheus exposition.
	HistogramBucket = obs.HistogramBucket

	// CheckpointManager persists per-cone extraction progress crash-safely
	// and restores it for resumed runs. Pass one via Options.Checkpoint.
	CheckpointManager = checkpoint.Manager
	// CheckpointSnapshot is the durable state of one extraction run.
	CheckpointSnapshot = checkpoint.Snapshot

	// LintReport is the outcome of the netlint preflight static analysis
	// (rides on Extraction.Lint when Options.Preflight is set).
	LintReport = netlint.Report
	// LintFinding is one static-analysis rule violation or observation.
	LintFinding = netlint.Finding
	// LintOptions configures a standalone lint run.
	LintOptions = netlint.Options
	// LintSeverity classifies a finding: LintError, LintWarn or LintInfo.
	LintSeverity = netlint.Severity
)

// Lint finding severities (keys of LintReport.Counts).
const (
	LintError = netlint.SevError
	LintWarn  = netlint.SevWarn
	LintInfo  = netlint.SevInfo
)

// Extraction failure classes; test with errors.Is.
var (
	ErrNotMultiplier  = extract.ErrNotMultiplier
	ErrNotIrreducible = extract.ErrNotIrreducible
	ErrMismatch       = extract.ErrMismatch
	ErrBadPorts       = extract.ErrBadPorts
	// ErrConsensus means fault-tolerant extraction could not determine a
	// unique P(x) within the configured tolerance.
	ErrConsensus = extract.ErrConsensus
	// ErrParse tags malformed netlist input (all readers wrap it).
	ErrParse = netlist.ErrParse
	// Resource-governance failures from the rewriting engine.
	ErrBudgetExceeded  = rewrite.ErrBudgetExceeded
	ErrConeTimeout     = rewrite.ErrConeTimeout
	ErrConePanic       = rewrite.ErrConePanic
	ErrTooManyFailures = rewrite.ErrTooManyFailures
	// ErrCheckpoint means a snapshot file exists but cannot be trusted
	// (truncated, checksum mismatch, version skew, foreign netlist);
	// ErrNoCheckpoint means none exists at all.
	ErrCheckpoint   = checkpoint.ErrCheckpoint
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrLintFindings means the preflight static analysis found error-level
	// defects and the pipeline refused to start.
	ErrLintFindings = netlint.ErrFindings
)

// Technology-mapping styles.
const (
	MapFuseInverters = opt.MapFuseInverters
	MapNandHeavy     = opt.MapNandHeavy
)

// Gate types, for callers that construct or inspect netlists directly.
const (
	Input  = netlist.Input
	Const0 = netlist.Const0
	Const1 = netlist.Const1
	Buf    = netlist.Buf
	Not    = netlist.Not
	And    = netlist.And
	Or     = netlist.Or
	Xor    = netlist.Xor
	Xnor   = netlist.Xnor
	Nand   = netlist.Nand
	Nor    = netlist.Nor
	Aoi21  = netlist.Aoi21
	Oai21  = netlist.Oai21
	Aoi22  = netlist.Aoi22
	Oai22  = netlist.Oai22
	Mux    = netlist.Mux
	Lut    = netlist.Lut
)

// NewNetlist returns an empty netlist to be populated with AddInput,
// AddGate, AddLut and MarkOutput.
func NewNetlist(name string) *Netlist { return netlist.New(name) }

// ParsePoly reads a polynomial like "x^233+x^74+1".
func ParsePoly(s string) (Poly, error) { return gf2poly.Parse(s) }

// MustParsePoly is ParsePoly that panics on error.
func MustParsePoly(s string) Poly { return gf2poly.MustParse(s) }

// NISTPolynomial returns the NIST-recommended irreducible polynomial for
// GF(2^m), if m is one of the standardized sizes (64..571).
func NISTPolynomial(m int) (Poly, bool) {
	p, ok := polytab.NIST[m]
	return p, ok
}

// DefaultPolynomial returns an irreducible polynomial of degree m: the NIST
// choice when standardized, otherwise the first irreducible trinomial, then
// pentanomial.
func DefaultPolynomial(m int) (Poly, error) { return polytab.Default(m) }

// Arch233Polynomials lists the architecture-optimal GF(2^233) polynomials of
// the paper's Table IV (Intel-Pentium, ARM, MSP430, NIST).
func Arch233Polynomials() []ArchPoly { return append([]ArchPoly(nil), polytab.Arch233...) }

// ReductionXORCount is the Section II-D cost model: the number of XOR
// operations the field reduction of a multiplier built on p needs.
func ReductionXORCount(p Poly) int { return polytab.ReductionXORCount(p) }

// NewField constructs GF(2^m) arithmetic from an irreducible polynomial.
func NewField(p Poly) (*Field, error) { return gf2m.New(p) }

// NewMastrovito generates a tabular Mastrovito multiplier netlist
// (shared partial-product sums; the Figure 1 construction).
func NewMastrovito(m int, p Poly) (*Netlist, error) { return gen.Mastrovito(m, p) }

// NewMastrovitoMatrix generates the classic matrix-form Mastrovito
// multiplier with fully independent per-output cones (the redundant
// benchmark style of Tables I and III).
func NewMastrovitoMatrix(m int, p Poly) (*Netlist, error) { return gen.MastrovitoMatrix(m, p) }

// NewMontgomery generates a flattened Montgomery multiplier:
// MonPro(MonPro(A,B), x^{2m} mod P) = A·B mod P (Table II's benchmarks).
func NewMontgomery(m int, p Poly) (*Netlist, error) { return gen.Montgomery(m, p) }

// NewMonPro generates a standalone Montgomery-product block computing
// A·B·x^(-m) mod P.
func NewMonPro(m int, p Poly) (*Netlist, error) { return gen.MonPro(m, p) }

// NewKaratsuba generates a GF(2^m) multiplier whose polynomial product uses
// recursive Karatsuba decomposition before the field reduction.
func NewKaratsuba(m int, p Poly) (*Netlist, error) { return gen.Karatsuba(m, p) }

// NewDigitSerial generates a least-significant-digit-first digit-serial
// GF(2^m) multiplier with digit width d.
func NewDigitSerial(m int, p Poly, d int) (*Netlist, error) { return gen.DigitSerial(m, p, d) }

// ReadEQN parses an equation-format netlist (ABC-style .eqn with ^ for XOR).
func ReadEQN(r io.Reader, name string) (*Netlist, error) { return netlist.ReadEQN(r, name) }

// ReadBLIF parses a combinational BLIF netlist.
func ReadBLIF(r io.Reader) (*Netlist, error) { return netlist.ReadBLIF(r) }

// ReadVerilog parses a structural gate-level Verilog netlist (the flavor
// synthesis tools emit for flattened designs).
func ReadVerilog(r io.Reader) (*Netlist, error) { return netlist.ReadVerilog(r) }

// Simplify runs constant propagation, cleanup and structural hashing.
func Simplify(n *Netlist) (*Netlist, error) { return opt.Simplify(n) }

// BalanceXor rebalances XOR trees with mod-2 leaf cancellation.
func BalanceXor(n *Netlist) (*Netlist, error) { return opt.BalanceXor(n) }

// TechMap maps the netlist onto a standard-cell-style library.
func TechMap(n *Netlist, style MapStyle) (*Netlist, error) { return opt.TechMap(n, style) }

// Synthesize runs the full optimization pipeline used for the paper's
// Table III ("optimized and mapped" multipliers).
func Synthesize(n *Netlist) (*Netlist, error) { return opt.Synthesize(n) }

// SynthesizeObserved is Synthesize with every pass bracketed in a phase
// span on rec (opt.simplify, opt.balance-xor, opt.techmap, opt.sweep).
func SynthesizeObserved(n *Netlist, rec *Recorder) (*Netlist, error) {
	return opt.SynthesizeObserved(n, rec)
}

// NewRecorder returns a telemetry recorder fanning out to the given sinks
// (none is valid: spans and metrics are still captured for Spans/Snapshot).
// Pass it via Options.Recorder / RewriteOptions.Recorder.
func NewRecorder(sinks ...TelemetrySink) *Recorder { return obs.NewRecorder(sinks...) }

// NewNDJSONSink streams every telemetry event to w as one JSON object per
// line; see the package obs doc comment for the event schema.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return obs.NewNDJSONSink(w) }

// NewProgressSink renders a human-readable live ticker (phase boundaries,
// one line per completed output bit) to w, typically os.Stderr.
func NewProgressSink(w io.Writer) *ProgressSink { return obs.NewProgressSink(w) }

// NewMemorySink captures telemetry events in memory, for tests and
// programmatic inspection.
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// NewJournal returns a bounded in-memory event journal (capacity <= 0
// selects the default). Attach it to a recorder as a sink to capture a
// replayable, sequence-numbered window of the run's telemetry.
func NewJournal(capacity int) *Journal { return obs.NewJournal(capacity) }

// BuildTraceTree assembles completed span records (Recorder.Spans) into
// the parent/child trace forest rendered by WriteTraceTree.
func BuildTraceTree(spans []SpanRecord) []*TraceNode { return obs.BuildTraceTree(spans) }

// WriteTraceTree renders a trace forest as an indented tree, one span per
// line with its duration, attributes and non-ok status.
func WriteTraceTree(w io.Writer, roots []*TraceNode) { obs.WriteTraceTree(w, roots) }

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format 0.0.4 under the given namespace prefix.
func WritePrometheus(w io.Writer, s MetricsSnapshot, namespace string) error {
	return obs.WritePrometheus(w, s, namespace)
}

// NewCheckpointManager returns a checkpoint manager persisting extraction
// progress into dir as an append-only cone log, appending at most once per
// throttle interval (throttle < 0 selects the 250ms default; 0 appends and
// fsyncs every completed cone before its completion hook returns, at about
// one fsync per cone). Assign it to Options.Checkpoint; set Options.Resume
// to adopt an existing checkpoint so only pending cones are re-rewritten.
func NewCheckpointManager(dir string, throttle time.Duration) *CheckpointManager {
	return checkpoint.NewManager(dir, throttle)
}

// LoadCheckpoint replays and validates the checkpoint in dir (its cone log,
// or a legacy snapshot) without starting a run — for inspection tools and
// the service's restart recovery.
func LoadCheckpoint(dir string) (*CheckpointSnapshot, error) { return checkpoint.Load(dir) }

// Rewrite extracts the canonical ANF of every output bit (Algorithm 1,
// parallel per Theorem 2) without interpreting the result.
func Rewrite(n *Netlist, opts RewriteOptions) (*RewriteResult, error) {
	return rewrite.Outputs(n, opts)
}

// Extract reverse engineers the irreducible polynomial of a multiplier
// netlist (Algorithm 2) and, unless disabled, verifies the design against
// the golden specification built from the recovered P(x).
func Extract(n *Netlist, opts Options) (*Extraction, error) {
	return extract.IrreduciblePolynomial(n, opts)
}

// InferredPorts is a port mapping recovered from the expressions alone.
type InferredPorts = extract.InferredPorts

// ExtractInferred reverse engineers P(x) from a multiplier whose port
// naming and ordering are unknown or scrambled: the operand partition, bit
// order and output order are inferred from the rewritten expressions before
// Algorithm 2 runs — an extension beyond the paper, which assumes canonical
// port names.
func ExtractInferred(n *Netlist, opts Options) (*Extraction, *InferredPorts, error) {
	return extract.IrreduciblePolynomialInferred(n, opts)
}

// Verify re-checks an extraction against the golden specification.
func Verify(n *Netlist, ext *Extraction) error { return extract.Verify(n, ext) }

// Lint statically analyzes a constructed netlist without extracting:
// dead/constant/redundant logic, multiplier I/O shape and naming,
// architecture fingerprint, and per-output cone-cost prediction.
func Lint(n *Netlist, opts LintOptions) *LintReport { return netlint.Analyze(n, opts) }

// LintSource lints raw netlist text: the full DAG rule set when the design
// parses, and otherwise source-level rules (combinational cycles with
// witness, multi-driven and undriven signals) that explain why the reader
// rejected it. format is "eqn", "blif", "verilog" or "" to auto-detect.
func LintSource(data []byte, filename, format string, opts LintOptions) *LintReport {
	return netlint.AnalyzeSource(data, filename, format, opts)
}

// ShardOptions tunes the scheduling side of ExtractSharded; the extraction
// semantics stay in Options.
type ShardOptions = shard.ExtractOptions

// ShardStats carries the robustness counters of a sharded run (lease
// expiries, steals, fenced zombie results, cache reuse).
type ShardStats = shard.Stats

// ExtractSharded reverse engineers P(x) with lease-based sharded rewriting:
// every output cone becomes an independently failable lease executed by a
// pool of local workers (and remote gfred peers when a hub is configured).
// Worker death, duplicated submissions and stragglers are absorbed by lease
// expiry, the epoch fence and work stealing. A cone that keeps failing
// (budget, timeout, panic) ends its retries instead of hanging the run: with
// opts.Tolerate > 0 it becomes a failed cone the consensus votes around,
// otherwise it fails the run with the same typed error Extract returns.
func ExtractSharded(n *Netlist, opts Options, sopts ShardOptions) (*Extraction, *Diagnosis, ShardStats, error) {
	return shard.Extract(n, opts, sopts)
}

// ExtractDiagnose is fault-tolerant extraction with localization: up to
// opts.Tolerate output cones may fail (budget, timeout, panic) or deviate
// from the golden model (tampering) while P(x) is still recovered by
// per-bit consensus, and the returned Diagnosis ranks candidate trojan
// gates by how completely force-complementing them on the deviating test
// vectors repairs the outputs. The Diagnosis is non-nil even on error,
// carrying whatever was learned.
func ExtractDiagnose(n *Netlist, opts Options) (*Extraction, *Diagnosis, error) {
	return extract.Diagnose(n, opts)
}

// SimulationCrossCheck validates an extraction by random simulation against
// software field multiplication — an independent path that does not rely on
// the rewriting engine.
func SimulationCrossCheck(n *Netlist, ext *Extraction, trials int, seed int64) error {
	return extract.SimulationCrossCheck(n, ext, trials, seed)
}

// RewriteForward computes every output's ANF by forward abstraction — the
// naive baseline that materializes an expression for every internal gate.
// It agrees with Rewrite bit-for-bit but its working set is the sum of all
// intermediate expressions; provided for comparison and for callers that
// want expressions of internal nodes.
func RewriteForward(n *Netlist) (*RewriteResult, error) { return rewrite.Forward(n) }

// TraceRewrite rewrites one output (by port name) while logging every
// Algorithm 1 iteration to w in the style of the paper's Figure 3.
// Intended for small designs.
func TraceRewrite(n *Netlist, outputName string, w io.Writer) (rewrite.BitResult, error) {
	names := n.OutputNames()
	outs := n.Outputs()
	for i, nm := range names {
		if nm == outputName {
			return rewrite.TraceOutput(n, outs[i], w)
		}
	}
	return rewrite.BitResult{}, fmt.Errorf("gfre: no output named %q", outputName)
}

// FormatExpr renders an ANF polynomial with the netlist's signal names.
func FormatExpr(p ANFPoly, n *Netlist) string { return rewrite.FormatPoly(p, n) }

// ANFPoly is a multivariate polynomial over GF(2) in algebraic normal form.
type ANFPoly = anf.Poly

// VerifyAgainst checks a netlist against a KNOWN irreducible polynomial —
// the classical GF(2^m) verification problem where P(x) is given.
func VerifyAgainst(n *Netlist, p Poly, opts Options) (*Extraction, error) {
	return extract.VerifyAgainst(n, p, opts)
}

// MapAOI fuses inverted AND-OR/OR-AND trees into AOI21/AOI22/OAI21/OAI22
// complex cells (function-preserving; sharing-aware).
func MapAOI(n *Netlist) (*Netlist, error) { return opt.MapAOI(n) }

// Scramble rebuilds n with inputs and outputs shuffled and renamed to
// meaningless sig_###/port_### identifiers — the obfuscated third-party-IP
// adversary ExtractInferred is built for. Deterministic in (n, seed).
func Scramble(n *Netlist, seed int64) (*Netlist, error) { return diffcheck.Scramble(n, seed) }

// FlipXor returns a copy of n with its k-th XOR gate replaced by OR — the
// single-gate trojan used to exercise verification failure paths.
func FlipXor(n *Netlist, k int) (*Netlist, error) { return diffcheck.FlipXor(n, k) }

// RandomIrreducible samples a uniformly random irreducible polynomial of
// degree m by rejection, for randomized differential testing.
func RandomIrreducible(r *rand.Rand, m int) (Poly, error) { return gf2poly.RandomIrreducible(r, m) }

// Report renders a human-readable analysis of an extraction (polynomial
// class, standard-catalog matches, primitivity, rewriting cost).
func Report(n *Netlist, ext *Extraction) string { return extract.Report(n, ext) }
