package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json at
// the repository root mirrors endToEnd and perLayer; the smoke test keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of gfre or gfred waits on, measured with
// tracing off; every workload reports all of them. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as a
// regression: at least twice the spread ten runs of unchanged code showed,
// and at most 0.25, the largest BENCHMARK.json allows. Even at the reference
// speed (speed.go), the ten-run spreads of the times reached 0.21, which
// sets their bounds at 0.25 (calibration in README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"job_latency_s_p50", "s", "lower", 0.25},
	{"job_latency_s_p90", "s", "lower", 0.25},
}

// perLayer are the per-layer numbers of every workload's traced run; they
// carry no bound.
var perLayer = []metricDef{
	{"gen.generate_s", "s", "lower", 0},
	{"netlist.parse_s", "s", "lower", 0},
	{"netlint.analyze_s", "s", "lower", 0},
	{"sem.analyze_s", "s", "lower", 0},
	{"netlist.cone_s", "s", "lower", 0},
	{"netlist.cone_gate_visits", "count", "lower", 0},
	{"rewrite.outputs_s", "s", "lower", 0},
	{"rewrite.substitutions", "count", "lower", 0},
	{"rewrite.peak_terms", "count", "lower", 0},
	{"rewrite.cancelled", "count", "lower", 0},
	{"rewrite.cone_s_p50", "s", "lower", 0},
	{"rewrite.cone_s_max", "s", "lower", 0},
	{"rewrite.worker_util", "ratio", "higher", 0},
	{"extract.alg2_s", "s", "lower", 0},
	{"extract.golden_s", "s", "lower", 0},
	{"extract.compare_s", "s", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_s", "s", "lower", 0},
}

// workloadLayers are per-layer metrics that only some workloads' traced runs
// measure (workload.layers says which). The result line carries exactly
// BENCHMARK.json's tables, which every workload reports, so these are
// printed and recorded in runs.jsonl but are not in BENCHMARK.json.
var workloadLayers = []metricDef{
	{"extract.infer_s", "s", "lower", 0},
	{"shard.extract_s", "s", "lower", 0},
	{"shard.overhead_ratio", "ratio", "lower", 0},
	{"checkpoint.save_s", "s", "lower", 0},
	{"checkpoint.spool_bytes", "bytes", "lower", 0},
	{"server.submit_s_p50", "s", "lower", 0},
	{"server.queue_wait_s_p50", "s", "lower", 0},
	{"server.queue_wait_s_p90", "s", "lower", 0},
	{"server.run_s_p50", "s", "lower", 0},
	{"server.notify_s_p50", "s", "lower", 0},
	{"server.deduped", "count", "higher", 0},
	{"server.extractions", "count", "lower", 0},
	{"server.attempts_extra", "count", "lower", 0},
}

// extraMetrics are printed and recorded but not part of BENCHMARK.json's
// tables: failed_ratio is 0 on a healthy tree (the result line's "failed"
// carries it), generator.late_s_max only exists where an open loop runs, and
// host.kernel_s is the speed the timed metrics were rescaled by.
var extraMetrics = []metricDef{
	{"failed_ratio", "ratio", "lower", 0},
	{"generator.late_s_max", "s", "lower", 0},
	{"host.kernel_s", "s", "lower", 0},
}

// rawMetrics are the timed end-to-end metrics as measured, before they are
// rescaled to the reference speed (see speed.go).
var rawMetrics = func() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Unit == "s" {
			out = append(out, metricDef{"raw." + d.Name, d.Unit, d.Better, 0})
		}
	}
	return out
}()

// unitOf returns the unit of a metric in any table.
func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer, workloadLayers, extraMetrics, rawMetrics} {
		for _, d := range table {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// value is one reported metric, as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics together with a note on how each was
// aggregated ("median of 3", "n=80"), which the text report prints.
type metricSet struct {
	vals  map[string]float64
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, notes: map[string]string{}}
}

func (s *metricSet) set(name string, v float64, note string, args ...any) {
	s.vals[name] = v
	s.notes[name] = fmt.Sprintf(note, args...)
}

// table returns the values of every metric in defs; a metric the run did not
// produce is an error, because the result line must carry all of them.
func (s *metricSet) table(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := s.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// all returns every collected metric with its unit.
func (s *metricSet) all() map[string]value {
	out := make(map[string]value, len(s.vals))
	for name, v := range s.vals {
		out[name] = value{Value: v, Unit: unitOf(name)}
	}
	return out
}

// write prints one aligned line per collected metric, in table order.
func (s *metricSet) write(w io.Writer) {
	for _, table := range [][]metricDef{endToEnd, perLayer, workloadLayers, extraMetrics, rawMetrics} {
		for _, d := range table {
			v, ok := s.vals[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-26s %14.6g %-6s %s\n", d.Name, v, d.Unit, s.notes[d.Name])
		}
	}
}

// percentile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs, or
// 0 when there are no samples (every answer failed, which the result line
// reports anyway).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so the
// spreads -compare prints match the ones the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
