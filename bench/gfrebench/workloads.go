package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"time"

	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
)

// design is one generated multiplier netlist and the P(x) planted in it.
// Every answer the benchmark checks is compared with P, never with another
// run of the tool under test. Designs are plain data so that a child
// process can generate them (see setup).
type design struct {
	Name  string `json:"name"`
	Arch  string `json:"arch"` // "mastrovito" or "montgomery"
	M     int    `json:"m"`
	P     string `json:"p"`               // the planted P(x)
	Synth bool   `json:"synth,omitempty"` // run opt.Synthesize
	// Scramble, when nonzero, scrambles the ports with this seed, so gfre
	// must infer them.
	Scramble int64  `json:"scramble,omitempty"`
	File     string `json:"file"`
	eqn      []byte // the netlist text, read back for submission to gfred
}

func (d *design) infer() bool { return d.Scramble != 0 }

// netlist runs the design's generator pipeline, scrambling the ports if
// asked.
func (d *design) netlist(scrambled bool) (*netlist.Netlist, error) {
	p, err := gf2poly.Parse(d.P)
	if err != nil {
		return nil, err
	}
	build := gen.Mastrovito
	if d.Arch == "montgomery" {
		build = gen.Montgomery
	}
	n, err := build(d.M, p)
	if err == nil && d.Synth {
		n, err = opt.Synthesize(n)
	}
	if err == nil && scrambled {
		n, err = diffcheck.Scramble(n, d.Scramble)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", d.Name, err)
	}
	return n, nil
}

// render returns the EQN text of the design.
func (d *design) render(scrambled bool) ([]byte, error) {
	n, err := d.netlist(scrambled)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		return nil, fmt.Errorf("writing %s: %w", d.Name, err)
	}
	return buf.Bytes(), nil
}

// generated is what the -generate child reports.
type generated struct {
	GenerateS float64 `json:"generate_s"` // time in generator calls
	Spans     []span  `json:"spans"`      // one per design
}

// generateMain is the -generate child: it reads design specs as JSON from
// stdin, writes each design's EQN file, and reports the time spent in the
// generators.
func generateMain(stdin io.Reader, stdout io.Writer) error {
	var designs []*design
	if err := json.NewDecoder(stdin).Decode(&designs); err != nil {
		return fmt.Errorf("design specs: %w", err)
	}
	tr := &tracer{}
	var total time.Duration
	for _, d := range designs {
		id := tr.start(0, "gen", d.Name)
		start := time.Now()
		eqn, err := d.render(d.infer())
		total += time.Since(start)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := os.WriteFile(d.File, eqn, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(generated{total.Seconds(), tr.snapshot()})
}

// submission schedules one service job: design index, and the offset from
// the phase start at which the open-loop generator is due to send it.
type submission struct {
	at     time.Duration
	design int
}

// plan is a workload's inputs for one seed. Batch workloads extract every
// design once per pass in a seeded order; the service workload submits the
// open-loop schedule and then the burst.
type plan struct {
	designs []*design
	batch   bool
	order   *rand.Rand
	open    []submission
	burst   []submission
}

// workload is one named set of inputs; why says which layers it stresses.
// layers names the per-layer metrics that only this workload's traced run
// measures (see workloadLayers).
type workload struct {
	name   string
	why    string
	layers []string
	plan   func(seed int64, seconds int, toy bool) (*plan, error)
}

func (w workload) hasLayer(name string) bool { return slices.Contains(w.layers, name) }

// The workloads. Their names are part of the benchmark's interface
// (BENCHMARK.json, runs.jsonl), so renaming one breaks comparisons with
// earlier runs. The sizes fit a 30-second run on a 2-core machine; the toy
// sizes are the smoke test's.
var workloads = []workload{
	{
		name:   "nist-mastrovito",
		why:    "Table I shape: rewrite- and parse-bound, cones barely overlap; a preflight or cone-index change should not move it",
		layers: []string{"shard.extract_s", "shard.overhead_ratio"},
		plan: func(seed int64, _ int, toy bool) (*plan, error) {
			return nistPlan(seed, pick(toy, []int{163, 233, 283, 409}, []int{16, 24}), "mastrovito")
		},
	},
	{
		name: "nist-montgomery",
		why:  "Table II shape and the m=571 proxy: preflight-bound, cones overlap heavily; where a shared cone index must show",
		plan: func(seed int64, _ int, toy bool) (*plan, error) {
			return nistPlan(seed, pick(toy, []int{163, 283}, []int{16, 24}), "montgomery")
		},
	},
	{
		name:   "dense-ip",
		why:    "third-party IP: synthesized, scrambled designs with dense random P(x), extracted with -infer; bound by rewrite, infer and golden model",
		layers: []string{"extract.infer_s"},
		plan:   densePlan,
	},
	{
		name: "service",
		why:  "gfred as operators see it: open-loop submissions with dedup resubmits, then a burst; submit lint, spool fsync and per-cone checkpoints",
		layers: []string{
			"checkpoint.save_s", "checkpoint.spool_bytes",
			"server.submit_s_p50", "server.queue_wait_s_p50", "server.queue_wait_s_p90",
			"server.run_s_p50", "server.notify_s_p50",
			"server.deduped", "server.extractions", "server.attempts_extra",
		},
		plan: servicePlan,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func pick[T any](toy bool, full, small T) T {
	if toy {
		return small
	}
	return full
}

// nistPlan builds one design per size with the standard polynomial; the
// seed only shuffles the extraction order of each pass.
func nistPlan(seed int64, sizes []int, arch string) (*plan, error) {
	pl := &plan{batch: true, order: rand.New(rand.NewSource(seed))}
	for _, m := range sizes {
		p, err := polytab.Default(m)
		if err != nil {
			return nil, err
		}
		pl.designs = append(pl.designs, &design{Name: fmt.Sprintf("%s-m%d", arch, m), Arch: arch, M: m, P: p.String()})
	}
	return pl, nil
}

// densePlan draws a random irreducible P(x) per size (dense: about half the
// coefficients are set), then synthesizes and scrambles the Mastrovito
// multiplier so gfre must infer the ports.
func densePlan(seed int64, _ int, toy bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := &plan{batch: true, order: rng}
	for _, m := range pick(toy, []int{64, 96, 128}, []int{16, 24}) {
		p, err := gf2poly.RandomIrreducible(rng, m)
		if err != nil {
			return nil, err
		}
		pl.designs = append(pl.designs, &design{
			Name: fmt.Sprintf("dense-m%d", m), Arch: "mastrovito", M: m, P: p.String(),
			Synth: true, Scramble: rng.Int63() | 1,
		})
	}
	return pl, nil
}

// Service load: a fixed-rate open loop in which every fourth submission
// resubmits an earlier netlist (dedup), then a burst of distinct jobs sent
// back to back. With a dense random P(x), a gfred job takes about 0.2 s at
// m=48 and 0.45 s at m=64 on two cores, so one job per second keeps the
// single worker about a third busy: the latency percentiles measure service
// time and modest queueing rather than a backlog. (At m ∈ {64, 96} a job
// takes about 0.9 s; the worker is then 70% busy, and queueing amplifies the
// host's speed drift into the percentiles.) The open loop takes two thirds
// of the run and the burst (about 6 s) the rest.
const (
	serviceRate  = 1.0 // open-loop submissions per second
	serviceBurst = 20  // distinct jobs in the burst
)

func servicePlan(seed int64, seconds int, toy bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := pick(toy, []int{48, 64}, []int{16, 24})
	openJobs := pick(toy, int(serviceRate*float64(seconds)*2/3), 3)
	interval := pick(toy, time.Duration(float64(time.Second)/serviceRate), 50*time.Millisecond)
	burst := pick(toy, serviceBurst, 2)

	pl := &plan{}
	newDesign := func() (int, error) {
		m := sizes[len(pl.designs)%len(sizes)]
		p, err := gf2poly.RandomIrreducible(rng, m)
		if err != nil {
			return 0, err
		}
		pl.designs = append(pl.designs, &design{
			Name: fmt.Sprintf("svc%03d-m%d", len(pl.designs), m), Arch: "mastrovito", M: m, P: p.String(),
		})
		return len(pl.designs) - 1, nil
	}
	for i := 0; i < openJobs; i++ {
		var idx int
		if i%4 == 3 {
			idx = rng.Intn(len(pl.designs))
		} else {
			var err error
			if idx, err = newDesign(); err != nil {
				return nil, err
			}
		}
		pl.open = append(pl.open, submission{at: time.Duration(i) * interval, design: idx})
	}
	for i := 0; i < burst; i++ {
		idx, err := newDesign()
		if err != nil {
			return nil, err
		}
		pl.burst = append(pl.burst, submission{design: idx})
	}
	return pl, nil
}
