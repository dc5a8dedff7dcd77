// Command gfre reverse engineers the irreducible polynomial P(x) of a
// gate-level GF(2^m) multiplier netlist, with no knowledge of the multiplier
// architecture — the tool form of the paper's technique.
//
// Usage:
//
//	gfre [flags] netlist.eqn
//	gfre [flags] netlist.blif
//	gfre [flags] netlist.v
//
// The field size m is the number of primary outputs; the inputs must be the
// two m-bit operands (named a0..a<m-1>/b0..b<m-1> by default; see -a/-b, or
// -infer for scrambled netlists).
//
// Example:
//
//	gfmultgen -m 163 -arch montgomery -o mult.eqn
//	gfre -threads 16 -stats mult.eqn
//
// Extraction can be resource-governed (-budget, -cone-timeout, -timeout)
// and fault-tolerant (-tolerate, -diagnose); the exit code then classifies
// the failure — see the table in -h.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: profile endpoints on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	gfre "github.com/galoisfield/gfre"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/shard"
)

// Exit codes, so scripted callers can tell failure classes apart without
// parsing stderr. Documented in -h.
const (
	exitOK       = 0 // P(x) recovered (and verified unless -no-verify)
	exitInternal = 1 // I/O errors, bad ports, anything unclassified
	exitUsage    = 2 // bad flags / arguments, malformed netlist
	exitResource = 3 // term budget, cone deadline, run timeout, or SIGINT/SIGTERM
	exitMismatch = 4 // netlist ≢ golden model, or consensus ambiguous
)

// errUsage tags command-line mistakes (it plays the role netlist.ErrParse
// plays for malformed input files).
var errUsage = errors.New("usage error")

// exitCode classifies err into the documented exit codes with errors.Is,
// so wrapped and aggregated errors (e.g. ErrTooManyFailures wrapping a
// BudgetError) land in the right class.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errUsage), errors.Is(err, flag.ErrHelp), errors.Is(err, gfre.ErrParse),
		errors.Is(err, gfre.ErrLintFindings):
		return exitUsage
	case errors.Is(err, gfre.ErrBudgetExceeded), errors.Is(err, gfre.ErrConeTimeout),
		errors.Is(err, gfre.ErrTooManyFailures),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitResource
	case errors.Is(err, gfre.ErrMismatch), errors.Is(err, gfre.ErrConsensus):
		return exitMismatch
	default:
		return exitInternal
	}
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gfre:", err)
	}
	os.Exit(exitCode(err))
}

func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("gfre", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format    = fs.String("format", "auto", "netlist format: eqn, blif, verilog or auto (by file extension, then content)")
		threads   = fs.Int("threads", 0, "rewriting worker threads; 0 = auto (GOMAXPROCS). The paper's experiments use 16")
		prefixA   = fs.String("a", "a", "input-name prefix of operand A")
		prefixB   = fs.String("b", "b", "input-name prefix of operand B")
		infer     = fs.Bool("infer", false, "infer operand partition, bit order and output order from the expressions (for scrambled/anonymized netlists)")
		noVerify  = fs.Bool("no-verify", false, "skip the golden-model equivalence check")
		simulate  = fs.Int("simulate", 0, "additionally cross-check with N*64 random simulation vectors")
		stats     = fs.Bool("stats", false, "print per-output-bit rewriting statistics (with -json: each bit's final term count, its cost being in the trace)")
		trace     = fs.String("trace", "", "print the Figure-3-style rewriting trace for this output (small designs)")
		quiet     = fs.Bool("quiet", false, "print only the recovered polynomial")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON (includes the span tree of the run)")
		report    = fs.Bool("report", false, "print the full audit report instead of the short summary")
		progress  = fs.Bool("progress", false, "live per-bit progress ticker on stderr")
		metrics   = fs.String("metrics", "", "stream telemetry events (phase spans, per-bit stats, heap samples) to this NDJSON file")
		pprofSrv  = fs.String("pprof", "", "serve net/http/pprof and expvar (incl. live gfre metrics) on this address, e.g. localhost:6060")
		traceTree = fs.Bool("trace-tree", false, "print the hierarchical span tree (phases with per-cone children) after extraction")

		timeout     = fs.Duration("timeout", 0, "abort the whole run after this long (exit code 3)")
		coneTimeout = fs.Duration("cone-timeout", 0, "abort any single output cone whose rewriting exceeds this wall time")
		budget      = fs.Int("budget", 0, "per-cone term budget: abort a cone when its expression holds more resident terms (guards against non-multiplier blowup)")
		tolerate    = fs.Int("tolerate", 0, "fault-tolerant extraction: recover P(x) by consensus despite up to K failed or tampered output cones")
		diagnose    = fs.Bool("diagnose", false, "print the fault diagnosis (per-bit verdicts, ranked suspect gates) even when -tolerate is 0")

		checkpointDir = fs.String("checkpoint", "", "persist per-cone progress crash-safely into this directory as the run proceeds")
		resume        = fs.Bool("resume", false, "resume from the snapshot in -checkpoint: completed cones are reused, only unfinished ones are re-rewritten")
		shardN        = fs.Int("shard", 0, "lease-based sharded extraction with N local workers: cones become independently failable leases with expiry, work stealing and an epoch fence")

		preflight = fs.Bool("preflight", true, "lint the netlist before rewriting: structural defects abort with exit code 2, and the cone-cost predictor fills -budget/-cone-timeout when unset")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gfre [flags] netlist.{eqn,blif,v}\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprint(stderr, `
exit codes:
  0  success: P(x) recovered (and verified unless -no-verify)
  1  internal error
  2  usage error or malformed netlist
  3  resource-governance abort (-budget / -cone-timeout / -timeout tripped)
     or run interrupted by SIGINT/SIGTERM (with -checkpoint the snapshot is
     synced before exit, so gfre -resume continues where the run stopped)
  4  verification failure: netlist does not match the golden model, or the
     fault-tolerant consensus is ambiguous
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("%w: expected exactly one netlist file argument", errUsage)
	}
	if *infer && (*tolerate > 0 || *diagnose) {
		return fmt.Errorf("%w: -infer cannot be combined with -tolerate/-diagnose (port inference needs every cone intact)", errUsage)
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("%w: -resume requires -checkpoint", errUsage)
	}
	path := fs.Arg(0)

	// SIGINT/SIGTERM cancel the run cooperatively: in-flight cones stop at
	// the next substitution, the checkpoint (if any) is synced, buffered
	// telemetry is flushed, and the process exits with code 3.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Telemetry: any observability flag (or -json, whose output embeds the
	// span tree) attaches a recorder; the nil recorder otherwise keeps
	// the pipeline uninstrumented.
	var rec *gfre.Recorder
	stopHeap := func() {}
	if *progress || *metrics != "" || *pprofSrv != "" || *jsonOut || *traceTree {
		var sinks []gfre.TelemetrySink
		if *progress {
			sinks = append(sinks, gfre.NewProgressSink(stderr))
		}
		if *metrics != "" {
			mf, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			defer mf.Close()
			sinks = append(sinks, gfre.NewNDJSONSink(mf))
		}
		rec = gfre.NewRecorder(sinks...)
		// Closing the recorder flushes every sink's buffer. Deferred (not
		// called inline at the end of the happy path) so that EVERY exit —
		// usage errors, parse failures, cancellation — drains the NDJSON
		// stream; a flush failure surfaces as the run's error when nothing
		// worse already has.
		defer func() {
			if cerr := rec.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
		stopHeap = rec.StartHeapSampler(0)
		defer stopHeap() // idempotent; normally stopped before rec.Close above
	}
	if *pprofSrv != "" {
		if err := servePprof(*pprofSrv, rec, stderr); err != nil {
			return err
		}
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	parseSpan := rec.StartSpan("parse", nil)
	n, err := netlist.Read(f, *format, filepath.Base(path))
	parseSpan.End()
	if err != nil {
		return err
	}

	st := n.Stats()
	if !*quiet && !*jsonOut {
		fmt.Fprintf(stdout, "netlist: %s — %d inputs, %d outputs, %d equations, depth %d\n",
			n.Name, st.Inputs, st.Outputs, st.Equations, st.Depth)
	}

	if *trace != "" {
		br, err := gfre.TraceRewrite(n, *trace, stdout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "final: %s = %s  (%d substitutions, peak %d terms)\n",
			*trace, gfre.FormatExpr(br.Expr, n), br.Substitutions, br.PeakTerms)
	}

	opts := gfre.Options{
		Threads:      *threads,
		PrefixA:      *prefixA,
		PrefixB:      *prefixB,
		SkipVerify:   *noVerify,
		Recorder:     rec,
		Ctx:          ctx,
		ConeDeadline: *coneTimeout,
		BudgetTerms:  *budget,
		Tolerate:     *tolerate,
		Diagnose:     *diagnose,
		Resume:       *resume,
		Preflight:    *preflight,
	}
	if *checkpointDir != "" {
		opts.Checkpoint = gfre.NewCheckpointManager(*checkpointDir, -1)
	}
	// One pipeline; the flags only pick its stages: the lease pool as the
	// rewriting scheduler, and ports inferred from the expressions.
	stages := extract.Stages{InferPorts: *infer}
	if *shardN > 0 {
		stages.Rewrite = shard.Rewriter(gfre.ShardOptions{Workers: *shardN}, nil)
	}
	start := time.Now()
	ext, diag, ports, err := extract.Run(n, opts, stages)
	elapsed := time.Since(start)
	stopHeap() // final heap sample; the deferred rec.Close flushes the stream
	if err != nil {
		// The preflight findings explain *why* the netlist was rejected;
		// render them before the bare error line.
		if ext != nil && ext.Lint != nil && ext.Lint.HasErrors() && !*quiet && !*jsonOut {
			ext.Lint.WriteText(stdout)
		}
		// The diagnosis carries whatever was learned before the failure —
		// per-bit verdicts matter most exactly when extraction aborts.
		if diag != nil && !*quiet && !*jsonOut {
			writeDiagnosis(stdout, n, diag)
		}
		return err
	}
	if ports != nil && !*quiet && !*jsonOut {
		fmt.Fprintf(stdout, "inferred ports:\n  A (LSB first): %s\n  B (LSB first): %s\n",
			portNames(n, ports.A), portNames(n, ports.B))
	}

	if *jsonOut {
		// Each cone's cost (cone_gates, subst, peak_terms, cancelled) and
		// wall time are its rewrite child span's in the trace; bits carries
		// only what the cone answered.
		type bitJSON struct {
			Bit        int    `json:"bit"`
			Name       string `json:"name"`
			FinalTerms int    `json:"final_terms"`
		}
		type lintJSON struct {
			Errors               int    `json:"errors"`
			Warnings             int    `json:"warnings"`
			Infos                int    `json:"infos"`
			Fingerprint          string `json:"fingerprint"`
			PredictedPeakTerms   int    `json:"predicted_peak_terms"`
			ActualPeakTerms      int    `json:"actual_peak_terms"`
			SuggestedBudgetTerms int    `json:"suggested_budget_terms"`
		}
		report := struct {
			Polynomial     string            `json:"polynomial"`
			M              int               `json:"m"`
			Verified       bool              `json:"verified"`
			RuntimeSeconds float64           `json:"runtime_seconds"`
			Threads        int               `json:"threads"`
			ReusedCones    int               `json:"reused_cones,omitempty"`
			Equations      int               `json:"equations"`
			Lint           *lintJSON         `json:"lint,omitempty"`
			Bits           []bitJSON         `json:"bits,omitempty"`
			Trace          []*gfre.TraceNode `json:"trace"`
			Diagnosis      *gfre.Diagnosis   `json:"diagnosis,omitempty"`
		}{
			Polynomial:     ext.P.String(),
			M:              ext.M,
			Verified:       ext.Verified,
			RuntimeSeconds: elapsed.Seconds(),
			Threads:        ext.Rewrite.Threads,
			ReusedCones:    ext.Rewrite.Reused,
			Equations:      st.Equations,
			Trace:          rec.TraceTree(),
			Diagnosis:      diag,
		}
		// Lint block: findings tally plus predicted-vs-actual cone cost, so
		// the telemetry pipeline can track predictor accuracy over time.
		if l := ext.Lint; l != nil {
			counts := l.Counts()
			report.Lint = &lintJSON{
				Errors:               counts[gfre.LintError],
				Warnings:             counts[gfre.LintWarn],
				Infos:                counts[gfre.LintInfo],
				Fingerprint:          l.Fingerprint.Class,
				PredictedPeakTerms:   l.MaxPredictedPeak(),
				ActualPeakTerms:      ext.Rewrite.PeakTerms(),
				SuggestedBudgetTerms: l.SuggestedBudgetTerms,
			}
		}
		if *stats {
			for _, b := range ext.Rewrite.Bits {
				report.Bits = append(report.Bits, bitJSON{Bit: b.Bit, Name: b.Name, FinalTerms: b.FinalTerms})
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	if *quiet {
		fmt.Fprintln(stdout, ext.P)
		return nil
	}
	if *report {
		fmt.Fprint(stdout, gfre.Report(n, ext))
		return nil
	}
	fmt.Fprintf(stdout, "irreducible polynomial: P(x) = %v\n", ext.P)
	fmt.Fprintf(stdout, "field:                  GF(2^%d)\n", ext.M)
	if ext.Verified {
		fmt.Fprintf(stdout, "verification:           PASS (netlist ≡ golden multiplier mod P)\n")
	} else {
		fmt.Fprintf(stdout, "verification:           skipped\n")
	}
	fmt.Fprintf(stdout, "extraction time:        %v in %d threads\n", elapsed.Round(time.Millisecond), ext.Rewrite.Threads)
	if ext.Rewrite.Reused > 0 {
		fmt.Fprintf(stdout, "checkpoint resume:      %d of %d cones reused\n", ext.Rewrite.Reused, ext.M)
	}
	fmt.Fprintf(stdout, "peak expression terms:  %d\n", ext.Rewrite.PeakTerms())
	if l := ext.Lint; l != nil {
		counts := l.Counts()
		fmt.Fprintf(stdout, "preflight lint:         %d warning(s), %d info; %s architecture; predicted peak %d vs actual %d terms\n",
			counts[gfre.LintWarn], counts[gfre.LintInfo], l.Fingerprint.Class,
			l.MaxPredictedPeak(), ext.Rewrite.PeakTerms())
	}
	if diag != nil {
		writeDiagnosis(stdout, n, diag)
	}

	if *simulate > 0 {
		if err := gfre.SimulationCrossCheck(n, ext, *simulate, time.Now().UnixNano()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "simulation cross-check: PASS (%d random vectors)\n", *simulate*64)
	}

	if *traceTree {
		fmt.Fprintln(stdout, "\ntrace tree:")
		gfre.WriteTraceTree(stdout, rec.TraceTree())
	}

	if *stats {
		fmt.Fprintln(stdout, "\nper-output-bit statistics:")
		fmt.Fprintf(stdout, "%6s %-8s %10s %8s %10s %12s\n", "bit", "name", "cone", "subst", "peak", "runtime")
		for _, b := range ext.Rewrite.Bits {
			fmt.Fprintf(stdout, "%6d %-8s %10d %8d %10d %12v\n",
				b.Bit, b.Name, b.ConeGates, b.Substitutions, b.PeakTerms, b.Runtime.Round(time.Microsecond))
		}
	}
	return nil
}

// servePprof starts the observability HTTP endpoint: net/http/pprof and
// expvar on the default mux, plus a live snapshot of the run's metrics
// registry under the expvar name "gfre". It listens eagerly so a bad
// address fails fast, then serves in the background for the lifetime of
// the extraction.
func servePprof(addr string, rec *gfre.Recorder, stderr io.Writer) error {
	if expvar.Get("gfre") == nil { // expvar.Publish panics on re-registration
		expvar.Publish("gfre", expvar.Func(func() any { return rec.Snapshot() }))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "pprof:   http://%s/debug/pprof  (expvar metrics at /debug/vars)\n", ln.Addr())
	go http.Serve(ln, nil) //nolint:errcheck — lives until process exit
	return nil
}

// writeDiagnosis renders the fault-tolerance verdict: consensus outcome,
// every non-healthy bit, and the ranked suspect gates.
func writeDiagnosis(w io.Writer, n *gfre.Netlist, diag *gfre.Diagnosis) {
	fmt.Fprintf(w, "\nfault diagnosis (tolerance %d):\n", diag.Tolerate)
	switch {
	case diag.Faults == 0:
		fmt.Fprintf(w, "  all %d output cones healthy\n", len(diag.Bits))
	case diag.Recovered:
		fmt.Fprintf(w, "  P(x) recovered by consensus over %d faulty cone(s) (%d candidates tried)\n",
			diag.Faults, diag.CandidatesTried)
	default:
		fmt.Fprintf(w, "  consensus FAILED with %d faulty cone(s) (%d candidates tried)\n",
			diag.Faults, diag.CandidatesTried)
	}
	for _, bd := range diag.Bits {
		if bd.State == "ok" {
			continue
		}
		detail := bd.Detail
		if detail != "" {
			detail = " — " + detail
		}
		fmt.Fprintf(w, "  bit %3d (%s): %s%s\n", bd.Bit, bd.Name, bd.State, detail)
	}
	if len(diag.Suspects) > 0 {
		fmt.Fprintf(w, "  suspect gates (most likely first):\n")
		max := len(diag.Suspects)
		if max > 10 {
			max = 10
		}
		for _, s := range diag.Suspects[:max] {
			name := s.Name
			if name == "" {
				name = n.NameOf(s.Gate)
			}
			fmt.Fprintf(w, "    gate %5d %-12s correct-rate %.2f  structural %.2f  (%d tampered / %d clean cones)\n",
				s.Gate, name, s.CorrectRate, s.Structural, s.TamperedCones, s.CleanCones)
		}
		if len(diag.Suspects) > max {
			fmt.Fprintf(w, "    ... and %d more\n", len(diag.Suspects)-max)
		}
	}
}

func portNames(n *gfre.Netlist, ids []int) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = n.NameOf(id)
	}
	return strings.Join(names, " ")
}
