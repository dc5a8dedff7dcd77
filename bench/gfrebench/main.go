// Command gfrebench is the repository's benchmark: it times gfre and gfred
// end to end on four workloads, with a separate traced run for per-layer
// numbers, and checks every answer against the P(x) planted in the input.
//
//	bench/gfrebench/run.sh -workload <name|all> -seed <n> [-seconds 30] [-trace 1] [-out dir]
//	bench/gfrebench/run.sh -compare parent/runs.jsonl change/runs.jsonl
//
// BENCHMARK.json's command is run as `run.sh --workload W --seed N --seconds
// S --trace 0|1`, S being its run_seconds, which is also the default here.
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when an
// answer is wrong. See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is BENCHMARK.json's run_seconds: the measuring time of a run
// unless -seconds says otherwise.
const runSeconds = 30

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gfrebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run: nist-mastrovito, nist-montgomery, dense-ip, service, or all")
		seed         = fs.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds      = fs.Int("seconds", runSeconds, "measuring time of one run (BENCHMARK.json's run_seconds)")
		trace        = fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		out          = fs.String("out", "", "directory for runs.jsonl and trace-<workload>.json (default <repo>/.bench_build/out)")
		repo         = fs.String("repo", ".", "repository root: where ./cmd/gfre is built from and .bench_build/ lives")
		compare      = fs.Bool("compare", false, "compare two runs.jsonl files: -compare parent.jsonl change.jsonl")
		generate     = fs.Bool("generate", false, "internal: generate the designs specified as JSON on standard input")
		traceChild   = fs.Bool("trace-design", false, "internal: trace the layers of the design requested as JSON on standard input")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *generate:
		if err := generateMain(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "gfrebench:", err)
			return 1
		}
		return 0
	case *traceChild:
		return traceChildMain(os.Stdin, stdout, stderr)
	case *compare:
		return compareMain(fs.Args(), stdout, stderr)
	case *workloadName == "" || fs.NArg() != 0:
		fs.Usage()
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "gfrebench: -trace must be 0 or 1")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "gfrebench: -seconds must be at least 1")
		return 2
	}
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "gfrebench:", err)
			return 2
		}
		selected = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := filepath.Abs(*repo)
	if err != nil {
		fmt.Fprintln(stderr, "gfrebench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	e, err := newEnv(ctx, root, build, *out, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "gfrebench:", err)
		return 1
	}
	defer e.close()

	code := 0
	for _, w := range selected {
		rec, err := e.run(ctx, w, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "gfrebench: %s: %v\n", w.name, err)
			return 1
		}
		if err := rec.report(stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "gfrebench: %s: %v\n", w.name, err)
			return 1
		}
		if err := appendRecord(filepath.Join(e.out, "runs.jsonl"), rec); err != nil {
			fmt.Fprintln(stderr, "gfrebench:", err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// env is what every workload run shares: the freshly built binaries, a
// scratch directory inside the repository's .bench_build, and the settings.
type env struct {
	work    string // removed at exit
	out     string
	self    string // this executable, re-run for traced children
	seconds time.Duration
	trace   bool
	toy     bool    // smoke-test sizes
	tr      *tracer // nil unless tracing
}

// newEnv makes the run's scratch directory under scratch and builds
// ./cmd/gfre and ./cmd/gfred into it from source before anything is timed;
// build time is not a metric.
func newEnv(ctx context.Context, repo, scratch, out string, seconds time.Duration, trace bool) (*env, error) {
	for _, dir := range []string{scratch, out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	e := &env{work: work, out: out, self: self, seconds: seconds, trace: trace}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(work, "bin")+string(filepath.Separator), "./cmd/gfre", "./cmd/gfred")
	cmd.Dir = repo
	if msg, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building gfre and gfred: %w: %s", err, tail(string(msg), 800))
	}
	return e, nil
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }

func (e *env) close() { os.RemoveAll(e.work) }

// runResult accumulates one workload run's answers and metrics.
type runResult struct {
	m         *metricSet
	attempted int
	failed    int
	problems  []string
	kernelS   []float64 // the speed kernel's durations through the run
}

// check counts one answer; a non-nil err is a wrong or missing answer.
func (r *runResult) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// run measures one workload: set-up, then either the untraced passes (or
// service phases) or the traced run.
func (e *env) run(ctx context.Context, w workload, seed int64) (*record, error) {
	pl, err := w.plan(seed, int(e.seconds/time.Second), e.toy)
	if err != nil {
		return nil, err
	}
	e.tr = nil
	if e.trace {
		e.tr = &tracer{}
	}
	r := &runResult{m: newMetricSet()}
	rec := &record{Header: currentHeader(e.seconds), Workload: w.name, Seed: seed, Trace: e.trace, StartUnixNS: time.Now().UnixNano()}
	root := e.tr.start(0, "workload", w.name)
	g, err := e.setup(ctx, pl, r, root)
	if err != nil {
		return nil, err
	}
	if g != nil {
		defer g.stop() //nolint:errcheck — error paths only; runService stops it and checks
	}
	switch {
	case pl.batch && !e.trace:
		err = e.runPasses(ctx, pl, r)
	case pl.batch:
		err = e.traceDesigns(ctx, pl.designs, w.layers, r, root)
	default:
		err = e.runService(ctx, g, pl, w.layers, r, root)
	}
	if err != nil {
		return nil, err
	}
	e.tr.end(root)
	if e.trace {
		if err := e.tr.write(filepath.Join(e.out, "trace-"+w.name+".json"), w.name); err != nil {
			return nil, err
		}
	}
	r.atReferenceSpeed()
	r.m.set("failed_ratio", float64(r.failed)/float64(max(1, r.attempted)), "%d of %d answers wrong", r.failed, r.attempted)
	rec.Correct, rec.Attempted, rec.Failed = r.failed == 0 && r.attempted > 0, r.attempted, r.failed
	rec.Metrics, rec.notes, rec.problems = r.m.all(), r.m, r.problems
	return rec, nil
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 5

// setup makes the workload's inputs. A child process (gfrebench -generate)
// runs the repository's generators and writes every netlist to a file, so
// the benchmark process itself stays small: children are started by vfork,
// and Linux counts the parent's peak resident set into a child's Maxrss, so
// a large benchmark process would inflate peak_rss_mb. For the service,
// set-up also reads the netlists back for submission and starts gfred,
// waiting for /readyz. Each repetition starts a fresh daemon; the last one
// stays up for the run.
func (e *env) setup(ctx context.Context, pl *plan, r *runResult, parent int) (_ *gfred, err error) {
	for _, d := range pl.designs {
		d.File = filepath.Join(e.work, d.Name+".eqn")
	}
	spec, err := json.Marshal(pl.designs)
	if err != nil {
		return nil, err
	}
	var g *gfred
	defer func() {
		if err != nil && g != nil {
			g.stop() //nolint:errcheck — reporting the set-up failure instead
		}
	}()
	var setupS, genS []float64
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			if _, err := g.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(g.spool); err != nil {
				return nil, err
			}
		}
		e.sampleSpeed(r)
		id := e.tr.start(parent, "setup", "")
		start := time.Now()
		gen, err := e.generate(ctx, spec, id)
		if err != nil {
			return nil, err
		}
		if !pl.batch {
			for _, d := range pl.designs {
				if d.eqn, err = os.ReadFile(d.File); err != nil {
					return nil, err
				}
			}
			if g, err = e.startGfred(ctx, filepath.Join(e.work, fmt.Sprintf("spool-%d", rep))); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
		genS = append(genS, gen)
		e.tr.end(id)
	}
	r.m.set("setup_s", median(setupS), "median of %d set-ups", setupReps)
	r.m.set("gen.generate_s", median(genS), "generator calls, median of %d set-ups", setupReps)
	return g, nil
}

// generate runs the -generate child on the design specs and returns the
// seconds it spent in generator calls.
func (e *env) generate(ctx context.Context, spec []byte, parent int) (float64, error) {
	id := e.tr.start(parent, "generate", "")
	c := runChild(ctx, bytes.NewReader(spec), e.self, "-generate")
	e.tr.end(id)
	if c.err != nil {
		return 0, c.err
	}
	var out generated
	if err := json.Unmarshal(c.stdout, &out); err != nil {
		return 0, fmt.Errorf("generator output: %w", err)
	}
	e.tr.graft(id, out.Spans)
	return out.GenerateS, nil
}

// header identifies the conditions of a run; -compare refuses to compare
// runs whose headers differ.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seconds    int    `json:"seconds"`
}

func currentHeader(seconds time.Duration) header {
	return header{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), int(seconds / time.Second)}
}

// record is one run as appended to runs.jsonl: every metric it measured.
type record struct {
	Header      header           `json:"header"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	StartUnixNS int64            `json:"start_unix_ns"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]value `json:"metrics"`

	notes    *metricSet
	problems []string
}

// report prints the metrics by name and unit, any wrong answers to stderr,
// and as the last line the result object with the run's metric table.
func (rec *record) report(stdout, stderr io.Writer) error {
	table := endToEnd
	if rec.Trace {
		table = perLayer
	}
	metrics, err := rec.notes.table(table)
	if err != nil {
		return err
	}
	h := rec.Header
	fmt.Fprintf(stdout, "gfrebench %s seed=%d trace=%v seconds=%d nproc=%d GOMAXPROCS=%d %s\n",
		rec.Workload, rec.Seed, rec.Trace, h.Seconds, h.NProc, h.GOMAXPROCS, h.GoVersion)
	rec.notes.write(stdout)
	for _, p := range rec.problems {
		fmt.Fprintln(stderr, "gfrebench: wrong answer:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a runs.jsonl file.
func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal([]byte(line), rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
