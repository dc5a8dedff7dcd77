package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/diffcheck"
)

// TestMain lets the test binary stand in for gfrebench in its child
// processes: the benchmark re-runs its own executable with -generate and
// -trace-design.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-trace-design" || os.Args[1] == "-generate") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// toyEnv builds gfre and gfred once for the package's tests and runs every
// workload at smoke-test sizes, one pass each.
func toyEnv(t *testing.T, trace bool) *env {
	t.Helper()
	dir := t.TempDir()
	e, err := newEnv(context.Background(), "../..", dir, filepath.Join(dir, "out"), time.Nanosecond, trace)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	e.toy = true
	return e
}

// TestSmokeWorkloads runs each workload untraced and traced at toy scale and
// checks the result line, the workload's own layer metrics and the trace.
func TestSmokeWorkloads(t *testing.T) {
	for _, trace := range []bool{false, true} {
		e := toyEnv(t, trace)
		table := endToEnd
		if trace {
			table = perLayer
		}
		for _, w := range workloads {
			rec, err := e.run(context.Background(), w, 1)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var stdout, stderr bytes.Buffer
			if err := rec.report(&stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]value
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || rec.Metrics["failed_ratio"].Value != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(table))
			}
			for _, d := range table {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, got, d.Unit)
				}
			}
			for _, d := range workloadLayers {
				got, ok := rec.Metrics[d.Name]
				if want := trace && w.hasLayer(d.Name); ok != want || (ok && got.Unit != d.Unit) {
					t.Errorf("%s trace=%v: metric %s = %+v (reported %v), want reported %v with unit %s", w.name, trace, d.Name, got, ok, want, d.Unit)
				}
			}
			if k := rec.Metrics["host.kernel_s"].Value; k <= 0 {
				t.Errorf("%s trace=%v: host.kernel_s = %v", w.name, trace, k)
			}
			for _, d := range rawMetrics {
				if _, ok := rec.Metrics[d.Name]; !ok && !trace {
					t.Errorf("%s: %s not recorded", w.name, d.Name)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(e.out, "trace-"+w.name+".json"), w)
			}
		}
	}
}

// checkTraceFile asserts that every span lies inside its parent and has a
// non-negative self time, and that each layer the workload times has spans.
func checkTraceFile(t *testing.T, path string, w workload) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ Spans []span }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range tr.Spans {
		layers[s.Name] = true
		if s.End < s.Start || s.SelfNS < 0 {
			t.Errorf("%s: span %d %s: start %d end %d self %d", path, s.ID, s.Name, s.Start, s.End, s.SelfNS)
		}
		if s.Parent == 0 {
			continue
		}
		p := tr.Spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d, %d] outside parent %s [%d, %d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, l := range tracedLayers {
		if !layers[l] {
			t.Errorf("%s: no %s span", path, l)
		}
	}
	for _, l := range []string{"extract.infer", "shard.extract", "checkpoint.save"} {
		if layers[l] != w.hasLayer(l+"_s") {
			t.Errorf("%s: %s span present %v, want %v", path, l, layers[l], w.hasLayer(l+"_s"))
		}
	}
}

// TestTamperedDesignCounted plants a one-gate trojan: the benchmark must
// count the answer as wrong, because it checks against the planted P(x)
// and the golden model rather than trusting the tool.
func TestTamperedDesignCounted(t *testing.T) {
	e := toyEnv(t, false)
	pl, err := workloads[0].plan(1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	d := pl.designs[0]
	n, err := d.netlist(false)
	if err != nil {
		t.Fatal(err)
	}
	if n, err = diffcheck.FlipXor(n, 3); err != nil {
		t.Fatal(err)
	}
	var eqn bytes.Buffer
	if err := n.WriteEQN(&eqn); err != nil {
		t.Fatal(err)
	}
	d.File = filepath.Join(t.TempDir(), "tampered.eqn")
	if err := os.WriteFile(d.File, eqn.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &runResult{m: newMetricSet()}
	_, err = e.extractCLI(context.Background(), d)
	r.check(err)
	if r.failed != 1 || r.attempted != 1 {
		t.Fatalf("tampered design: attempted %d, failed %d (err %v); want it counted as a failure", r.attempted, r.failed, err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables and
// the workload list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench/gfrebench"}) || b.Command[len(b.Command)-1] != "bench/gfrebench/run.sh" {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want the -seconds default %d", b.RunSeconds, runSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareRule exercises the verdicts and the refusals of -compare.
func TestCompareRule(t *testing.T) {
	h := header{NProc: 2, GOMAXPROCS: 2, GoVersion: "go", Seconds: 20}
	runs := func(start int64, vals ...float64) []*record {
		var out []*record
		for i, v := range vals {
			// Pairs alternate: the parent (start 0) runs first in even pairs.
			off := start
			if i%2 == 1 {
				off = 1 - start
			}
			out = append(out, &record{Header: h, Workload: "w", StartUnixNS: int64(10*i) + off,
				Metrics: map[string]value{"pass_s": {Value: v, Unit: "s"}}})
		}
		return out
	}
	parent := runs(0, 10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10)
	verdict := func(change []*record) string {
		t.Helper()
		rows, err := compareRuns(parent, change)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.metric == "pass_s" {
				return r.verdict
			}
		}
		t.Fatal("no pass_s row")
		return ""
	}
	if v := verdict(runs(1, 8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8)); v != "gain" {
		t.Errorf("faster change: %s, want gain", v)
	}
	if v := verdict(runs(1, 15, 15.1, 14.9, 15, 15.2, 14.8, 15, 15.1, 14.9, 15)); v != "regression" {
		t.Errorf("slower change: %s, want regression", v)
	}
	if v := verdict(runs(1, 10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10.05)); v != "within bound" {
		t.Errorf("same change: %s, want within bound", v)
	}
	if v := verdict(runs(1, 5, 15, 5, 15, 5, 15, 5, 15, 5, 15)); v != "unresolved" {
		t.Errorf("noisy change: %s, want unresolved", v)
	}
	if _, err := compareRuns(parent[:9], runs(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)); err == nil {
		t.Error("nine pairs accepted")
	}
	sameOrder := runs(1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	for i, r := range sameOrder {
		r.StartUnixNS = int64(10*i) + 5 // after the parent in every pair
	}
	if _, err := compareRuns(parent, sameOrder); err == nil {
		t.Error("pairs that do not alternate accepted")
	}
	other := runs(1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	other[0].Header.GOMAXPROCS = 16
	if _, err := compareRuns(parent, other); err == nil {
		t.Error("runs with different headers accepted")
	}
}
