package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gfre "github.com/galoisfield/gfre"
)

// writeNetlist generates a small multiplier netlist file for CLI tests.
func writeNetlist(t *testing.T, name, arch string, m int) string {
	t.Helper()
	p, err := gfre.DefaultPolynomial(m)
	if err != nil {
		t.Fatal(err)
	}
	var n *gfre.Netlist
	switch arch {
	case "mastrovito":
		n, err = gfre.NewMastrovito(m, p)
	case "montgomery":
		n, err = gfre.NewMontgomery(m, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	switch filepath.Ext(name) {
	case ".blif":
		err = n.WriteBLIF(f)
	case ".v":
		err = n.WriteVerilog(f)
	default:
		err = n.WriteEQN(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFile dumps a netlist in EQN format for CLI tests.
func writeFile(t *testing.T, name string, n *gfre.Netlist) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := n.WriteEQN(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// trojanedMultiplier builds an m-bit matrix-Mastrovito multiplier with its
// middle XOR gate flipped to OR — a single-gate hardware trojan.
func trojanedMultiplier(t *testing.T, m int) *gfre.Netlist {
	t.Helper()
	p, err := gfre.DefaultPolynomial(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gfre.NewMastrovitoMatrix(m, p)
	if err != nil {
		t.Fatal(err)
	}
	nx := 0
	for id := 0; id < n.NumGates(); id++ {
		if n.Gate(id).Type == gfre.Xor {
			nx++
		}
	}
	out := gfre.NewNetlist(n.Name + "_troj")
	idmap := make([]int, n.NumGates())
	seen := 0
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		var nid int
		if g.Type == gfre.Input {
			nid, err = out.AddInput(n.NameOf(id))
		} else {
			typ := g.Type
			if typ == gfre.Xor {
				if seen == nx/2 {
					typ = gfre.Or
				}
				seen++
			}
			fanin := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				fanin[i] = idmap[f]
			}
			nid, err = out.AddGate(typ, fanin...)
		}
		if err != nil {
			t.Fatal(err)
		}
		idmap[id] = nid
	}
	names := n.OutputNames()
	for i, oid := range n.Outputs() {
		if err := out.MarkOutput(names[i], idmap[oid]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// explodingNetlist builds an l-output circuit shaped like a multiplier
// (inputs a0../b0.., outputs z0..) whose last bit is z = Π(a_i⊕b_i): its
// rewriting has zero mod-2 cancellation and blows up to 2^l terms — the
// budget-abort testbed. The other bits are cheap a_i·b_i cones so port
// identification succeeds and the run reaches the rewriting phase.
func explodingNetlist(t *testing.T, l int) *gfre.Netlist {
	t.Helper()
	n := gfre.NewNetlist("explode")
	var sums, prods []int
	for i := 0; i < l; i++ {
		ai, err := n.AddInput(fmt.Sprintf("a%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bi, err := n.AddInput(fmt.Sprintf("b%d", i))
		if err != nil {
			t.Fatal(err)
		}
		x, err := n.AddGate(gfre.Xor, ai, bi)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, x)
		p, err := n.AddGate(gfre.And, ai, bi)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	for len(sums) > 1 {
		var next []int
		for i := 0; i+1 < len(sums); i += 2 {
			g, err := n.AddGate(gfre.And, sums[i], sums[i+1])
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, g)
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	for i := 0; i < l-1; i++ {
		if err := n.MarkOutput(fmt.Sprintf("z%d", i), prods[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.MarkOutput(fmt.Sprintf("z%d", l-1), sums[0]); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, exitOK},
		{"internal", errors.New("boom"), exitInternal},
		{"usage", fmt.Errorf("%w: no file", errUsage), exitUsage},
		{"parse", fmt.Errorf("read: %w", gfre.ErrParse), exitUsage},
		{"budget", fmt.Errorf("bit 3: %w", gfre.ErrBudgetExceeded), exitResource},
		{"cone-timeout", gfre.ErrConeTimeout, exitResource},
		{"too-many-failures", fmt.Errorf("%w: %w", gfre.ErrTooManyFailures, gfre.ErrBudgetExceeded), exitResource},
		{"run-timeout", context.DeadlineExceeded, exitResource},
		{"cancelled", context.Canceled, exitResource},
		{"mismatch", fmt.Errorf("verify: %w", gfre.ErrMismatch), exitMismatch},
		{"consensus", gfre.ErrConsensus, exitMismatch},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := exitCode(tt.err); got != tt.want {
				t.Errorf("exitCode(%v) = %d, want %d", tt.err, got, tt.want)
			}
		})
	}
}

func TestRunBudgetAbortExitsResource(t *testing.T) {
	path := writeFile(t, "explode.eqn", explodingNetlist(t, 14))
	var out, errOut bytes.Buffer
	err := run([]string{"-budget", "256", "-no-verify", path}, &out, &errOut)
	if !errors.Is(err, gfre.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := exitCode(err); got != exitResource {
		t.Errorf("exit code = %d, want %d", got, exitResource)
	}
}

func TestRunUsageExitCodes(t *testing.T) {
	path := writeNetlist(t, "m4.eqn", "mastrovito", 4)
	garbage := filepath.Join(t.TempDir(), "garbage.eqn")
	if err := os.WriteFile(garbage, []byte("NAME = ((((\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},
		{"-format", "bogus", path},
		{"-infer", "-tolerate", "1", path},
		{garbage},
	} {
		var out bytes.Buffer
		err := run(args, &out, &out)
		if err == nil {
			t.Errorf("run(%v) succeeded, want usage/parse error", args)
			continue
		}
		if got := exitCode(err); got != exitUsage {
			t.Errorf("run(%v): exit code = %d (%v), want %d", args, got, err, exitUsage)
		}
	}
}

func TestRunMismatchExitsMismatch(t *testing.T) {
	path := writeFile(t, "troj.eqn", trojanedMultiplier(t, 8))
	var out bytes.Buffer
	err := run([]string{path}, &out, &out)
	if !errors.Is(err, gfre.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if got := exitCode(err); got != exitMismatch {
		t.Errorf("exit code = %d, want %d", got, exitMismatch)
	}
}

func TestRunToleratesTrojan(t *testing.T) {
	path := writeFile(t, "troj.eqn", trojanedMultiplier(t, 8))
	var out, errOut bytes.Buffer
	if err := run([]string{"-tolerate", "1", path}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"x^8+x^4+x^3+x+1", "fault diagnosis", "tampered", "suspect gates"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunDiagnoseJSON(t *testing.T) {
	path := writeFile(t, "troj.eqn", trojanedMultiplier(t, 8))
	var out bytes.Buffer
	if err := run([]string{"-tolerate", "1", "-json", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Polynomial string `json:"polynomial"`
		Diagnosis  *struct {
			Recovered bool  `json:"recovered"`
			Faults    int   `json:"faults"`
			Tampered  []int `json:"tampered"`
			Suspects  []struct {
				Gate int `json:"gate"`
			} `json:"suspects"`
		} `json:"diagnosis"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Polynomial != "x^8+x^4+x^3+x+1" {
		t.Errorf("polynomial = %q", rep.Polynomial)
	}
	if rep.Diagnosis == nil || !rep.Diagnosis.Recovered || rep.Diagnosis.Faults != 1 ||
		len(rep.Diagnosis.Tampered) != 1 || len(rep.Diagnosis.Suspects) == 0 {
		t.Errorf("diagnosis = %+v", rep.Diagnosis)
	}
}

func TestRunBasicExtraction(t *testing.T) {
	path := writeNetlist(t, "m8.eqn", "mastrovito", 8)
	var out, errOut bytes.Buffer
	if err := run([]string{path}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	for _, want := range []string{"x^8+x^4+x^3+x+1", "PASS", "GF(2^8)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunQuiet(t *testing.T) {
	path := writeNetlist(t, "m8.blif", "montgomery", 8)
	var out bytes.Buffer
	if err := run([]string{"-quiet", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "x^8+x^4+x^3+x+1" {
		t.Errorf("quiet output = %q", got)
	}
}

func TestRunJSONWithStats(t *testing.T) {
	path := writeNetlist(t, "m8.v", "mastrovito", 8)
	var out bytes.Buffer
	if err := run([]string{"-json", "-stats", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Polynomial string `json:"polynomial"`
		M          int    `json:"m"`
		Verified   bool   `json:"verified"`
		Bits       []struct {
			Name string `json:"name"`
		} `json:"bits"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Polynomial != "x^8+x^4+x^3+x+1" || rep.M != 8 || !rep.Verified || len(rep.Bits) != 8 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunTrace(t *testing.T) {
	path := writeNetlist(t, "m2.eqn", "mastrovito", 2)
	var out bytes.Buffer
	if err := run([]string{"-trace", "z1", "-quiet", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "F0 = z1") {
		t.Errorf("trace missing:\n%s", out.String())
	}
}

func TestRunSimulateFlag(t *testing.T) {
	path := writeNetlist(t, "m8.eqn", "mastrovito", 8)
	var out bytes.Buffer
	if err := run([]string{"-simulate", "2", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "simulation cross-check: PASS") {
		t.Errorf("missing cross-check line:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out, &out); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"/nonexistent/file.eqn"}, &out, &out); err == nil {
		t.Error("missing file should fail")
	}
	path := writeNetlist(t, "m8.eqn", "mastrovito", 8)
	if err := run([]string{"-format", "bogus", path}, &out, &out); err == nil {
		t.Error("bad format should fail")
	}
	if err := run([]string{"-trace", "nosuch", path}, &out, &out); err == nil {
		t.Error("unknown trace output should fail")
	}
}

func TestRunProgressAndMetrics(t *testing.T) {
	path := writeNetlist(t, "m8.eqn", "mastrovito", 8)
	ndjson := filepath.Join(t.TempDir(), "run.ndjson")
	var out, errOut bytes.Buffer
	if err := run([]string{"-progress", "-metrics", ndjson, path}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	// The progress ticker lands on stderr, not stdout.
	for _, want := range []string{"[obs ", "rewrite: 8 bits", "[  8/  8]", "rewrite done in"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("progress output missing %q:\n%s", want, errOut.String())
		}
	}
	if strings.Contains(out.String(), "[obs ") {
		t.Error("progress ticker leaked onto stdout")
	}

	// The metrics file must be valid NDJSON with the acceptance shape:
	// phase spans plus one start/finish pair per output bit.
	data, err := os.ReadFile(ndjson)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	spans := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			TS   float64          `json:"ts"`
			Ev   string           `json:"ev"`
			Name string           `json:"name"`
			V    map[string]int64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		counts[ev.Ev]++
		if ev.Ev == "span_end" {
			spans[ev.Name] = true
		}
	}
	if counts["bit_start"] != 8 || counts["bit_finish"] != 8 {
		t.Errorf("bit events %v, want 8 start + 8 finish", counts)
	}
	if counts["heap"] == 0 {
		t.Errorf("no heap samples in %v", counts)
	}
	for _, phase := range []string{"parse", "preflight", "rewrite", "extract", "golden-model", "verify"} {
		if !spans[phase] {
			t.Errorf("phase span %q missing from event stream (have %v)", phase, spans)
		}
	}
}

// TestRunJSONTraceNests checks the -json report over a real extraction,
// with the local scheduler and with the lease pool: the span tree is always
// there, holds every pipeline phase, and every child span's wall interval
// lies inside its parent's.
func TestRunJSONTraceNests(t *testing.T) {
	const m = 8
	path := writeNetlist(t, "m8.eqn", "montgomery", m)
	p, err := gfre.DefaultPolynomial(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, sched := range map[string][]string{"local": nil, "shard": {"-shard", "2"}} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(append(append([]string{"-json", "-stats"}, sched...), path), &out, &errOut); err != nil {
				t.Fatalf("%v\n%s", err, errOut.String())
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &fields); err != nil {
				t.Fatalf("bad JSON: %v\n%s", err, out.String())
			}
			if _, ok := fields["phases"]; ok {
				t.Error("report still carries the flat phases list")
			}
			var rep struct {
				Polynomial string `json:"polynomial"`
				Verified   bool   `json:"verified"`
				Threads    int    `json:"threads"`
				Bits       []struct {
					Name       string `json:"name"`
					FinalTerms int    `json:"final_terms"`
				} `json:"bits"`
				Trace []*gfre.TraceNode `json:"trace"`
			}
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Polynomial != p.String() || !rep.Verified {
				t.Errorf("P = %s (verified %v), want %v verified", rep.Polynomial, rep.Verified, p)
			}
			if rep.Threads <= 0 {
				t.Errorf("threads = %d; the auto default must report the actual worker count", rep.Threads)
			}
			if len(rep.Bits) != m {
				t.Errorf("bits = %d, want %d", len(rep.Bits), m)
			}
			got := map[string]bool{}
			cones := map[string]int{}              // per-cone children of the rewrite span
			costs := map[string]map[string]int64{} // their attrs: each cone's cost
			var walk func(n *gfre.TraceNode)
			walk = func(n *gfre.TraceNode) {
				got[n.Name] = true
				if n.Name == "rewrite" {
					for _, c := range n.Children {
						cones[c.Name]++
						costs[c.Name] = c.Attrs
					}
				}
				if n.Start < 0 || n.Duration < 0 {
					t.Errorf("span %q: start %v, duration %v", n.Name, n.Start, n.Duration)
				}
				for _, c := range n.Children {
					if c.Start < n.Start || c.Start+c.Duration > n.Start+n.Duration {
						t.Errorf("span %q [%d, %d] ns lies outside its parent %q [%d, %d] ns",
							c.Name, c.Start, c.Start+c.Duration, n.Name, n.Start, n.Start+n.Duration)
					}
					walk(c)
				}
			}
			for _, root := range rep.Trace {
				walk(root)
			}
			for _, phase := range []string{"parse", "rewrite", "extract", "golden-model", "verify"} {
				if !got[phase] {
					t.Errorf("trace missing %q (have %v)", phase, got)
				}
			}
			if len(cones) != m {
				t.Errorf("rewrite span has per-cone children %v, want one for each of the %d outputs", cones, m)
			}
			for name, k := range cones {
				if k != 1 {
					t.Errorf("cone %s has %d spans under rewrite, want 1", name, k)
				}
			}
			// Each cone's cost is written once, in its span: bits carries
			// the answer only.
			for i, b := range rep.Bits {
				c := costs[b.Name]
				if b.FinalTerms <= 0 || int64(b.FinalTerms) > c["peak_terms"] || c["cone_gates"] <= 0 || c["subst"] <= 0 {
					t.Errorf("bit %d (%s): final_terms %d, cone span attrs %v", i, b.Name, b.FinalTerms, c)
				}
			}
		})
	}
}

func TestRunPprofServer(t *testing.T) {
	path := writeNetlist(t, "m4.eqn", "mastrovito", 4)
	var out, errOut bytes.Buffer
	if err := run([]string{"-pprof", "127.0.0.1:0", "-quiet", path}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if !strings.Contains(errOut.String(), "/debug/pprof") {
		t.Errorf("pprof address line missing:\n%s", errOut.String())
	}
	// A bad listen address must fail fast.
	if err := run([]string{"-pprof", "256.256.256.256:0", "-quiet", path}, &out, &errOut); err == nil {
		t.Error("unlistenable pprof address should fail")
	}
}

func TestRunReport(t *testing.T) {
	path := writeNetlist(t, "m8r.eqn", "mastrovito", 8)
	var out bytes.Buffer
	if err := run([]string{"-report", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"polynomial:", "pentanomial", "verified:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestMetricsFlushedOnErrorExit audits the obs flush contract end to end:
// even when extraction fails (here a budget abort), every NDJSON record
// emitted before the failure must be on disk — the deferred Recorder.Close
// in run() is what drains the sink's buffer on error paths.
func TestMetricsFlushedOnErrorExit(t *testing.T) {
	path := writeFile(t, "explode.eqn", explodingNetlist(t, 14))
	ndjson := filepath.Join(t.TempDir(), "fail.ndjson")
	var out, errOut bytes.Buffer
	err := run([]string{"-budget", "256", "-no-verify", "-metrics", ndjson, path}, &out, &errOut)
	if !errors.Is(err, gfre.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	data, err := os.ReadFile(ndjson)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("failed run left an empty metrics file — buffered records were lost")
	}
	sawParse := false
	for _, line := range lines {
		var ev struct {
			Ev   string `json:"ev"`
			Name string `json:"name"`
		}
		if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
			t.Fatalf("truncated or corrupt NDJSON line %q: %v", line, jerr)
		}
		if ev.Ev == "span_end" && ev.Name == "parse" {
			sawParse = true
		}
	}
	if !sawParse {
		t.Fatal("metrics from before the failure (parse span) did not survive the error exit")
	}
}

// TestRunInferComposesWithShardAndCheckpoint: -infer picks the ports stage
// of the same pipeline, so it combines with the lease scheduler and with
// checkpoint/resume like any other run.
func TestRunInferComposesWithShardAndCheckpoint(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "scrambled16.eqn")
	p, err := gfre.DefaultPolynomial(16)
	if err != nil {
		t.Fatal(err)
	}
	type report struct {
		Polynomial  string `json:"polynomial"`
		Verified    bool   `json:"verified"`
		ReusedCones int    `json:"reused_cones"`
	}
	runJSON := func(args ...string) report {
		t.Helper()
		var out, errOut bytes.Buffer
		if err := run(append([]string{"-json", "-infer"}, append(args, path)...), &out, &errOut); err != nil {
			t.Fatalf("gfre %v: %v\n%s", args, err, errOut.String())
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("gfre %v: %v\n%s", args, err, out.String())
		}
		if rep.Polynomial != p.String() || !rep.Verified {
			t.Fatalf("gfre %v: P = %s (verified %v), want %v verified", args, rep.Polynomial, rep.Verified, p)
		}
		return rep
	}

	runJSON("-shard", "2")

	ckpt := t.TempDir()
	runJSON("-checkpoint", ckpt)
	if rep := runJSON("-checkpoint", ckpt, "-resume"); rep.ReusedCones != 16 {
		t.Fatalf("-infer -resume reused %d cones, want 16", rep.ReusedCones)
	}
}
