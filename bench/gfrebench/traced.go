package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
	"github.com/galoisfield/gfre/internal/shard"
)

// untracedReps is how often the traced run extracts each design with gfre;
// the median of these walls is what trace.coverage and trace.overhead_s
// compare the traced pipeline with.
const untracedReps = 3

// traceDesigns runs each design through gfre untracedReps times (the
// untraced wall the coverage is measured against) and once in a traced child
// process, and aggregates the layer spans over the designs. layers are the
// workload's own layer metrics, which the child times after the pipeline.
func (e *env) traceDesigns(ctx context.Context, designs []*design, layers []string, r *runResult, parent int) error {
	var agg layerAgg
	for _, d := range designs {
		var walls []float64
		var err error
		for rep := 0; rep < untracedReps && err == nil; rep++ {
			id := e.tr.start(parent, "gfre", d.Name)
			var cli child
			cli, err = e.extractCLI(ctx, d)
			e.tr.end(id)
			walls = append(walls, cli.wall.Seconds())
		}
		r.check(err)
		if err != nil {
			continue
		}
		req, err := json.Marshal(traceRequest{File: d.File, Planted: d.P, Infer: d.infer(), Layers: layers})
		if err != nil {
			return err
		}
		id := e.tr.start(parent, "trace-design", d.Name)
		c := runChild(ctx, bytes.NewReader(req), e.self, "-trace-design")
		e.tr.end(id)
		var dt designTrace
		if err := json.Unmarshal(c.stdout, &dt); err != nil && c.err == nil {
			c.err = fmt.Errorf("%s: traced child output: %w", d.Name, err)
		}
		if dt.Error != "" {
			c.err = errors.New(dt.Error)
		}
		r.check(c.err)
		if c.err != nil {
			continue
		}
		e.tr.graft(id, dt.Spans)
		agg.add(&dt, median(walls))
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	agg.report(r, layers)
	return nil
}

// layerAgg sums the traced layers over a workload's designs.
type layerAgg struct {
	designs                      int
	layerS                       map[string]float64
	pipelineS, pipelineWall, cli float64
	localS                       float64 // Σ pipeline layers after parsing: what shard.Extract redoes
	coverage                     []float64
	subst, cancelled, visits     int
	peak                         int
	bitS                         []float64
	threadSeconds                float64 // Σ threads × rewrite.outputs wall
}

func (a *layerAgg) add(dt *designTrace, cliWall float64) {
	if a.layerS == nil {
		a.layerS = map[string]float64{}
	}
	a.designs++
	pipeID := 0
	for _, s := range dt.Spans {
		if s.Name == "pipeline" {
			pipeID = s.ID
			a.pipelineWall += float64(s.End-s.Start) / 1e9
		}
	}
	inPipeline := 0.0
	for _, s := range dt.Spans {
		d := float64(s.End-s.Start) / 1e9
		a.layerS[s.Name] += d
		if s.Parent == pipeID {
			inPipeline += d
			if s.Name != "netlist.parse" {
				a.localS += d
			}
		}
		if s.Name == "rewrite.outputs" {
			a.threadSeconds += float64(dt.Threads) * d
		}
	}
	a.pipelineS += inPipeline
	a.cli += cliWall
	a.coverage = append(a.coverage, inPipeline/cliWall)
	a.subst += dt.Substitutions
	a.cancelled += dt.Cancelled
	a.visits += dt.ConeGateVisits
	a.peak = max(a.peak, dt.PeakTerms)
	a.bitS = append(a.bitS, dt.BitSeconds...)
}

// report sets the layer metrics every workload has, plus the workload's own
// timed layers.
func (a *layerAgg) report(r *runResult, layers []string) {
	n := a.designs
	for _, layer := range tracedLayers {
		r.m.set(layer+"_s", a.layerS[layer], "sum over %d traced designs", n)
	}
	for _, layer := range []string{"extract.infer", "shard.extract", "checkpoint.save"} {
		if slices.Contains(layers, layer+"_s") {
			r.m.set(layer+"_s", a.layerS[layer], "sum over %d traced designs", n)
		}
	}
	r.m.set("netlist.cone_gate_visits", float64(a.visits), "Σ cone sizes over all outputs")
	r.m.set("rewrite.substitutions", float64(a.subst), "sum over %d designs", n)
	r.m.set("rewrite.peak_terms", float64(a.peak), "max over %d designs", n)
	r.m.set("rewrite.cancelled", float64(a.cancelled), "sum over %d designs", n)
	r.m.set("rewrite.cone_s_p50", median(a.bitS), "per-cone runtime, n=%d", len(a.bitS))
	r.m.set("rewrite.cone_s_max", percentile(a.bitS, 1), "per-cone runtime, n=%d", len(a.bitS))
	r.m.set("rewrite.worker_util", ratio(sum(a.bitS), a.threadSeconds), "Σ cone runtime / (threads × rewrite wall)")
	if slices.Contains(layers, "shard.overhead_ratio") {
		r.m.set("shard.overhead_ratio", ratio(a.layerS["shard.extract"], a.localS), "shard.Extract / Σ local pipeline layers after parsing")
	}
	r.m.set("trace.coverage", ratio(a.pipelineS, a.cli), "Σ pipeline layers / Σ untraced gfre wall (median of %d); per design %.3f–%.3f",
		untracedReps, percentile(a.coverage, 0), percentile(a.coverage, 1))
	r.m.set("trace.overhead_s", a.pipelineWall-a.cli, "traced pipeline wall - untraced gfre wall, over %d designs", n)
}

// ratio is a/b, or 0 when no design was traced (every one failed, which the
// result line reports anyway).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceRequest is what the parent asks of a traced child, as JSON on its
// standard input.
type traceRequest struct {
	File    string   `json:"file"`
	Planted string   `json:"planted"`
	Infer   bool     `json:"infer,omitempty"`
	Layers  []string `json:"layers,omitempty"` // the workload's own layer metrics
}

// traceChildMain is the -trace-design entry point of the traced child.
func traceChildMain(stdin io.Reader, stdout, stderr io.Writer) int {
	var req traceRequest
	var dt *designTrace
	err := json.NewDecoder(stdin).Decode(&req)
	if err == nil {
		dt, err = traceDesign(req)
	}
	code := 0
	if err != nil {
		dt, code = &designTrace{Error: err.Error()}, 1
	}
	if err := json.NewEncoder(stdout).Encode(dt); err != nil {
		fmt.Fprintln(stderr, "gfrebench:", err)
		return 1
	}
	return code
}

// designTrace is what a traced child process reports for one design: the
// layer spans plus the exact work counts of the rewrite.
type designTrace struct {
	Spans          []span    `json:"spans"`
	Threads        int       `json:"threads"`
	Substitutions  int       `json:"substitutions"`
	PeakTerms      int       `json:"peak_terms"`
	Cancelled      int       `json:"cancelled"`
	ConeGateVisits int       `json:"cone_gate_visits"`
	BitSeconds     []float64 `json:"bit_seconds"`
	Error          string    `json:"error,omitempty"`
}

// tracedLayers are the layer spans every traced design records: gfre's
// pipeline in gfre's order, then the sem sweep and cone construction on
// their own. extract.infer (in the pipeline, on designs extracted with
// -infer), shard.extract and checkpoint.save are timed only on the workloads
// that list them.
var tracedLayers = []string{
	"netlist.parse", "netlint.analyze", "rewrite.outputs",
	"extract.alg2", "extract.golden", "extract.compare",
	"sem.analyze", "netlist.cone",
}

// traceDesign extracts one design in this process, timing calls into each
// layer's public functions from outside. It runs in a fresh child process so
// that heap state and caches match a gfre run. The pipeline layers run first,
// in gfre's order; the layers gfre does not call on this path (the sem sweep
// on its own, cone construction, and the workload's own layers) run after
// it, so they cannot warm its caches.
func traceDesign(req traceRequest) (*designTrace, error) {
	name := strings.TrimSuffix(filepath.Base(req.File), ".eqn") // the design's name, as in the parent's spans
	tr := &tracer{}
	out := &designTrace{Threads: runtime.GOMAXPROCS(0)}
	var err error
	// step times one layer call; after a failure the remaining steps are
	// skipped.
	step := func(parent int, layer string, f func() error) {
		if err != nil {
			return
		}
		id := tr.start(parent, layer, name)
		if ferr := f(); ferr != nil {
			err = fmt.Errorf("%s %s: %w", name, layer, ferr)
		}
		tr.end(id)
	}
	var (
		n        *netlist.Netlist
		rw, bits *rewrite.Result // bits: rw in logical output order
		a, b     []int
		p        gf2poly.Poly
		specs    []anf.Poly
	)

	root := tr.start(0, "design", name)
	pipe := tr.start(root, "pipeline", name)
	step(pipe, "netlist.parse", func() error {
		f, ferr := os.Open(req.File)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		n, ferr = netlist.ReadEQN(f, filepath.Base(req.File))
		return ferr
	})
	step(pipe, "netlint.analyze", func() error {
		return netlint.Analyze(n, netlint.Options{RequireMultiplier: true}).Err()
	})
	step(pipe, "rewrite.outputs", func() (ferr error) {
		rw, ferr = rewrite.Outputs(n, rewrite.Options{Threads: out.Threads})
		bits = rw
		return ferr
	})
	if req.Infer {
		step(pipe, "extract.infer", func() error {
			ip, ferr := extract.InferPorts(n, rw)
			if ferr != nil {
				return ferr
			}
			bits, a, b = ip.ReorderBits(rw), ip.A, ip.B
			return nil
		})
	} else if err == nil {
		a, b, err = namedPorts(n, len(n.Outputs()))
	}
	step(pipe, "extract.alg2", func() (ferr error) {
		if p, ferr = extract.FromExpressions(bits, a, b); ferr == nil && p.String() != req.Planted {
			ferr = fmt.Errorf("recovered %v, planted %s", p, req.Planted)
		}
		return ferr
	})
	step(pipe, "extract.golden", func() error {
		for c := range bits.Bits {
			specs = append(specs, extract.SpecificationANF(p, a, b, c))
		}
		return nil
	})
	step(pipe, "extract.compare", func() error {
		for c, br := range bits.Bits {
			if !br.Expr.Equal(specs[c]) {
				return fmt.Errorf("output bit %d deviates from the golden model", c)
			}
		}
		return nil
	})
	tr.end(pipe)

	step(root, "sem.analyze", func() error {
		sem.Analyze(n, sem.Options{})
		return nil
	})
	step(root, "netlist.cone", func() error {
		for _, o := range n.Outputs() {
			out.ConeGateVisits += len(n.Cone(o))
		}
		return nil
	})
	if slices.Contains(req.Layers, "shard.extract_s") {
		step(root, "shard.extract", func() error {
			// The lease scheduler of gfre -shard, with preflight as gfre runs it.
			ext, _, _, ferr := shard.Extract(n, extract.Options{Preflight: true}, shard.ExtractOptions{Workers: out.Threads})
			if ferr == nil && (ext.P.String() != req.Planted || !ext.Verified) {
				ferr = fmt.Errorf("shard.Extract recovered %v (verified %v), planted %s", ext.P, ext.Verified, req.Planted)
			}
			return ferr
		})
	}
	if slices.Contains(req.Layers, "checkpoint.save_s") {
		step(root, "checkpoint.save", func() error {
			dir, ferr := os.MkdirTemp(filepath.Dir(req.File), "ckpt-")
			if ferr != nil {
				return ferr
			}
			defer os.RemoveAll(dir)
			// Throttle 0 is gfred's setting: one durable save per finished cone.
			mgr := checkpoint.NewManager(dir, 0)
			if ferr := mgr.Begin(n); ferr != nil {
				return ferr
			}
			for _, br := range rw.Bits {
				mgr.Record(br)
			}
			return mgr.Sync()
		})
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}

	out.Spans = tr.snapshot()
	out.Substitutions = rw.TotalSubstitutions()
	out.PeakTerms = rw.PeakTerms()
	out.Cancelled = rw.TotalCancelled()
	for _, br := range rw.Bits {
		out.BitSeconds = append(out.BitSeconds, br.Runtime.Seconds())
	}
	return out, nil
}

// namedPorts finds the operand inputs a0..a<m-1> and b0..b<m-1>, the names
// the generators give them.
func namedPorts(n *netlist.Netlist, m int) (a, b []int, err error) {
	byName := map[string]int{}
	for _, id := range n.Inputs() {
		byName[n.NameOf(id)] = id
	}
	a, b = make([]int, m), make([]int, m)
	for i := 0; i < m; i++ {
		var okA, okB bool
		a[i], okA = byName["a"+strconv.Itoa(i)]
		b[i], okB = byName["b"+strconv.Itoa(i)]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("%s: operand input a%d/b%d not found", n.Name, i, i)
		}
	}
	return a, b, nil
}
