package netlint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
)

var p8 = gf2poly.MustParse("x^8+x^4+x^3+x+1")

func findings(rep *Report, rule string) []Finding {
	var out []Finding
	for _, f := range rep.Findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestAnalyzeCleanMastrovito(t *testing.T) {
	n, err := gen.Mastrovito(8, p8)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(n, Options{RequireMultiplier: true})
	if rep.HasErrors() {
		t.Fatalf("clean multiplier produced errors: %+v", rep.Findings)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("Err() = %v on clean design", err)
	}
	if rep.Fingerprint.Class != "mastrovito" {
		t.Errorf("fingerprint = %q (%s), want mastrovito", rep.Fingerprint.Class, rep.Fingerprint.Evidence)
	}
	if len(rep.Cones) != 8 {
		t.Fatalf("got %d cones, want 8", len(rep.Cones))
	}
	if rep.SuggestedBudgetTerms <= 0 {
		t.Errorf("no suggested budget")
	}
	if rep.SuggestedConeTimeoutMS <= 0 {
		t.Errorf("no suggested cone timeout")
	}
	// The no-cancellation bound must dominate the true final ANF size: bit k
	// of a degree-8 multiplier has at most 64 product terms.
	for _, c := range rep.Cones {
		if c.PredictedPeakTerms < 8 {
			t.Errorf("cone %s predicted peak %d implausibly small", c.Name, c.PredictedPeakTerms)
		}
		if c.Saturated {
			t.Errorf("cone %s saturated on a clean m=8 design", c.Name)
		}
	}
}

func TestAnalyzeMontgomeryFingerprint(t *testing.T) {
	n, err := gen.Montgomery(8, p8)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(n, Options{RequireMultiplier: true})
	if rep.HasErrors() {
		t.Fatalf("clean montgomery produced errors: %+v", rep.Findings)
	}
	if rep.Fingerprint.Class != "montgomery" {
		t.Errorf("fingerprint = %q (%s), want montgomery", rep.Fingerprint.Class, rep.Fingerprint.Evidence)
	}
}

func TestDeadGateAndUnusedInput(t *testing.T) {
	n := netlist.New("dead")
	a, _ := n.AddInput("a0")
	b, _ := n.AddInput("a1")
	u, _ := n.AddInput("b0") // never used
	x, _ := n.AddGate(netlist.Xor, a, b)
	dead, _ := n.AddGate(netlist.And, a, u) // feeds nothing
	_ = dead
	n.MarkOutput("z0", x)
	n.MarkOutput("z1", a)

	rep := Analyze(n, Options{})
	if got := findings(rep, "dead-gate"); len(got) != 1 {
		t.Fatalf("dead-gate findings = %+v, want 1", got)
	} else if got[0].Severity != SevWarn || len(got[0].Gates) != 1 || got[0].Gates[0] != dead {
		t.Errorf("dead-gate finding = %+v", got[0])
	}
	// b0 is read only by the dead gate, hence unused from any output.
	got := findings(rep, "unused-input")
	if len(got) != 1 || !strings.Contains(got[0].Message, "b0") {
		t.Fatalf("unused-input findings = %+v", got)
	}
}

func TestConstAndRedundantGates(t *testing.T) {
	n := netlist.New("consts")
	a, _ := n.AddInput("a0")
	b, _ := n.AddInput("a1")
	c0, _ := n.AddGate(netlist.Const1)
	fold, _ := n.AddGate(netlist.And, a, c0) // folds to a
	self, _ := n.AddGate(netlist.Xor, b, b)  // x^x = 0
	dup1, _ := n.AddGate(netlist.And, a, b)
	dup2, _ := n.AddGate(netlist.And, a, b) // structural duplicate
	buf, _ := n.AddGate(netlist.Buf, dup1)
	top1, _ := n.AddGate(netlist.Xor, fold, self)
	top2, _ := n.AddGate(netlist.Xor, dup2, buf)
	n.MarkOutput("z0", top1)
	n.MarkOutput("z1", top2)

	rep := Analyze(n, Options{})
	if got := findings(rep, "const-gate"); len(got) != 2 {
		t.Errorf("const-gate findings = %+v, want constant + foldable", got)
	}
	red := findings(rep, "redundant-gate")
	var msgs []string
	for _, f := range red {
		msgs = append(msgs, f.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"identical fanins", "duplicate", "buffer"} {
		if !strings.Contains(joined, want) {
			t.Errorf("redundant-gate findings missing %q:\n%s", want, joined)
		}
	}
}

func TestIOShapeRequireMultiplier(t *testing.T) {
	n := netlist.New("notmul")
	a, _ := n.AddInput("a0")
	b, _ := n.AddInput("a1")
	x, _ := n.AddGate(netlist.And, a, b)
	n.MarkOutput("z0", x)

	rep := Analyze(n, Options{})
	if rep.HasErrors() {
		t.Fatalf("io-shape should be a warning without RequireMultiplier: %+v", rep.Findings)
	}
	rep = Analyze(n, Options{RequireMultiplier: true})
	if !rep.HasErrors() {
		t.Fatal("io-shape should be an error with RequireMultiplier")
	}
	if err := rep.Err(); !errors.Is(err, ErrFindings) {
		t.Fatalf("Err() = %v, want ErrFindings", err)
	}
}

func TestAnalyzeSourceCycleWitness(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
p = a0 * b0;
u = p ^ w;
v = u ^ a1;
w = v * b1;
z0 = p ^ a0;
z1 = u;
`
	rep := AnalyzeSource([]byte(src), "cyclic.eqn", "", Options{})
	cyc := findings(rep, "cycle")
	if len(cyc) != 1 {
		t.Fatalf("cycle findings = %+v, want 1", rep.Findings)
	}
	f := cyc[0]
	if f.Severity != SevError {
		t.Errorf("cycle severity = %s", f.Severity)
	}
	// Witness must spell out the loop u -> w -> v -> u (direction dependent
	// on traversal; both ends must name the same signal).
	if len(f.Signals) < 3 || f.Signals[0] != f.Signals[len(f.Signals)-1] {
		t.Errorf("cycle witness %v is not a closed path", f.Signals)
	}
	for _, s := range []string{"u", "v", "w"} {
		if !strings.Contains(f.Message, s) {
			t.Errorf("cycle witness %q missing %q", f.Message, s)
		}
	}
	if err := rep.Err(); !errors.Is(err, ErrFindings) {
		t.Fatalf("Err() = %v", err)
	}
	// No redundant parse finding: the cycle already explains the failure.
	if got := findings(rep, "parse"); len(got) != 0 {
		t.Errorf("unexpected parse findings: %+v", got)
	}
}

func TestAnalyzeSourceMultiDriven(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
p = a0 * b0;
p = a1 * b1;
z0 = p ^ a0;
z1 = p;
`
	rep := AnalyzeSource([]byte(src), "multi.eqn", "", Options{})
	got := findings(rep, "multi-driven")
	if len(got) != 1 {
		t.Fatalf("multi-driven findings = %+v", rep.Findings)
	}
	if !strings.Contains(got[0].Message, `"p"`) || !strings.Contains(got[0].Message, "lines 4 and 5") {
		t.Errorf("multi-driven witness = %q", got[0].Message)
	}
}

func TestAnalyzeSourceUndriven(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
z0 = a0 * ghost;
z1 = a1 ^ b0;
`
	rep := AnalyzeSource([]byte(src), "undriven.eqn", "", Options{})
	got := findings(rep, "undriven")
	if len(got) != 1 || !strings.Contains(got[0].Message, "ghost") {
		t.Fatalf("undriven findings = %+v", rep.Findings)
	}
}

func TestAnalyzeSourceTopoOrder(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
z0 = p ^ a0;
p = a0 * b0;
z1 = p ^ a1;
`
	rep := AnalyzeSource([]byte(src), "fwd.eqn", "", Options{})
	if got := findings(rep, "topo-order"); len(got) != 1 {
		t.Fatalf("topo-order findings = %+v", rep.Findings)
	}
	// Acyclic forward reference still fails the EQN reader; the parse
	// finding must accompany the topo-order explanation.
	if got := findings(rep, "parse"); len(got) != 1 {
		t.Fatalf("parse findings = %+v", rep.Findings)
	}
}

func TestAnalyzeSourceBLIFCycle(t *testing.T) {
	src := `.model cyc
.inputs a b
.outputs z
.names a x y
11 1
.names y b x
11 1
.names x z
1 1
.end
`
	rep := AnalyzeSource([]byte(src), "cyc.blif", "", Options{})
	got := findings(rep, "cycle")
	if len(got) != 1 {
		t.Fatalf("cycle findings = %+v", rep.Findings)
	}
	if got[0].Signals[0] != got[0].Signals[len(got[0].Signals)-1] {
		t.Errorf("witness not closed: %v", got[0].Signals)
	}
}

func TestAnalyzeSourceCleanEQNRunsDAGRules(t *testing.T) {
	n, err := gen.Mastrovito(4, gf2poly.MustParse("x^4+x+1"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeSource(buf.Bytes(), "mast4.eqn", "", Options{RequireMultiplier: true})
	if rep.HasErrors() {
		t.Fatalf("clean EQN round-trip produced errors: %+v", rep.Findings)
	}
	if rep.Fingerprint.Class != "mastrovito" {
		t.Errorf("fingerprint = %q", rep.Fingerprint.Class)
	}
	if len(rep.Cones) != 4 {
		t.Errorf("cones = %d, want 4", len(rep.Cones))
	}
}

// TestAdmissionAndExecutionLintShareSemanticSweep lints a file as gfred
// admits it, then the netlist parsed from the same bytes as the extraction
// preflight does. The second lint must reuse the first one's semantic sweep,
// whose wall time both reports carry, while the file's report keeps naming
// the source bytes. The file is not in canonical form (its header names the
// generator's design, not the submitted name), so its digest differs from
// the parsed netlist's canonical hash.
func TestAdmissionAndExecutionLintShareSemanticSweep(t *testing.T) {
	n, err := gen.Mastrovito(48, gf2poly.MustParse("x^48+x^9+x^7+x^4+1"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	opts := Options{RequireMultiplier: true}
	admitted := AnalyzeSource(buf.Bytes(), "share-sweep.eqn", "eqn", opts)
	parsed, err := netlist.ReadEQN(bytes.NewReader(buf.Bytes()), "share-sweep")
	if err != nil {
		t.Fatal(err)
	}
	executed := Analyze(parsed, opts)
	if admitted.HasErrors() || executed.HasErrors() {
		t.Fatalf("clean design produced errors: %+v / %+v", admitted.Findings, executed.Findings)
	}
	if a, e := admitted.Algebra.AnalysisMicros, executed.Algebra.AnalysisMicros; a != e {
		t.Errorf("semantic sweep ran twice: %d µs at admission, %d µs at execution", a, e)
	}
	sum := sha256.Sum256(buf.Bytes())
	if want := hex.EncodeToString(sum[:]); admitted.ContentHash != want {
		t.Errorf("file report content hash = %s, want the source digest %s", admitted.ContentHash, want)
	}
	if want, _ := checkpoint.HashNetlist(parsed); executed.ContentHash != want {
		t.Errorf("netlist report content hash = %s, want the canonical hash %s", executed.ContentHash, want)
	}
}

func TestAnalyzeSourceSelfLoop(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
z0 = z0 ^ a0;
z1 = a1;
`
	rep := AnalyzeSource([]byte(src), "self.eqn", "", Options{})
	got := findings(rep, "cycle")
	if len(got) != 1 || len(got[0].Signals) != 2 || got[0].Signals[0] != "z0" {
		t.Fatalf("self-loop findings = %+v", rep.Findings)
	}
}

func TestRenderTextAndSARIF(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
p = a0 * b0;
p = a1 * b1;
z0 = p ^ ghost;
z1 = p;
`
	rep := AnalyzeSource([]byte(src), "bad.eqn", "", Options{})

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"error", "multi-driven", "bad.eqn"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, text.String())
		}
	}

	var sarif bytes.Buffer
	if err := WriteSARIF(&sarif, rep); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(sarif.Bytes(), &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("SARIF version = %v", v)
	}
	runs := log["runs"].([]any)
	results := runs[0].(map[string]any)["results"].([]any)
	if len(results) != len(rep.Findings) {
		t.Errorf("SARIF results = %d, findings = %d", len(results), len(rep.Findings))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] == "" || first["level"] != "error" {
		t.Errorf("SARIF result = %v", first)
	}
}

func TestReportJSONAndCounts(t *testing.T) {
	n, err := gen.Mastrovito(4, gf2poly.MustParse("x^4+x+1"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(n, Options{})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fingerprint", "findings", "suggested_budget_terms"} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("report JSON missing %q: %s", key, data)
		}
	}
	counts := rep.Counts()
	if counts[SevError] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if rep.MaxSeverity() != SevInfo {
		t.Errorf("MaxSeverity = %q", rep.MaxSeverity())
	}
}

func TestDisabledRules(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
p = a0 * b0;
p = a1 * b1;
z0 = p;
z1 = p;
`
	rep := AnalyzeSource([]byte(src), "multi.eqn", "", Options{Disabled: []string{"multi-driven", "parse"}})
	if got := findings(rep, "multi-driven"); len(got) != 0 {
		t.Errorf("disabled rule still fired: %+v", got)
	}
}

func TestBlowupRiskSaturation(t *testing.T) {
	// An OR chain over 40 distinct inputs: each level's ANF is
	// t ^ x ^ t*x, so the term count roughly doubles per level and the true
	// expansion has ~2^40 terms. Unlike a squaring chain (which algebra
	// proves collapses to degree 1), this blowup is real: both the
	// syntactic term bound and the semantic degree bound saturate.
	n := netlist.New("blowup")
	cur, _ := n.AddInput("x0")
	for i := 1; i < 40; i++ {
		in, _ := n.AddInput(fmt.Sprintf("x%d", i))
		cur, _ = n.AddGate(netlist.Or, cur, in)
	}
	n.MarkOutput("z0", cur)
	rep := Analyze(n, Options{})
	if got := findings(rep, "blowup-risk"); len(got) != 1 {
		t.Fatalf("blowup-risk findings = %+v", rep.Findings)
	}
	if !rep.Cones[0].Saturated {
		t.Error("cone not marked saturated")
	}
	if rep.SuggestedBudgetTerms > budgetCeil {
		t.Errorf("saturated budget = %d exceeds ceiling", rep.SuggestedBudgetTerms)
	}
}

func TestGovernorFillsOnlyUnset(t *testing.T) {
	rep := &Report{SuggestedBudgetTerms: 5000, SuggestedConeTimeoutMS: 70000}
	if b, d := rep.Governor(0, 0); b != 5000 || d.Milliseconds() != 70000 {
		t.Errorf("Governor(0,0) = %d, %v", b, d)
	}
	if b, d := rep.Governor(123, 1); b != 0 || d != 0 {
		t.Errorf("Governor(set,set) = %d, %v, want zeros", b, d)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	src := `
INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
p = a0 * b0;
q = ghost1 ^ ghost2;
q = p;
z0 = q ^ loop;
loop = z0 * p;
z1 = p;
`
	first := AnalyzeSource([]byte(src), "messy.eqn", "", Options{})
	a, _ := json.Marshal(first)
	for i := 0; i < 10; i++ {
		b, _ := json.Marshal(AnalyzeSource([]byte(src), "messy.eqn", "", Options{}))
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d differs:\n%s\n%s", i, a, b)
		}
	}
}

// brokenVectorsBLIF has two broken input vectors (x, y) and two broken
// output vectors (w missing bit 1, n starting at 3), so io-naming reports
// four "not a contiguous 0-based bit range" findings of one severity.
const brokenVectorsBLIF = ".model v\n.inputs a0 a1 b0 b1 x[3] y[5]\n.outputs w[0] n3 w[2]\n" +
	".names a0 b0 w[0]\n11 1\n.names a1 b1 n3\n11 1\n.names x[3] y[5] w[2]\n11 1\n.end\n"

func TestIONamingFindingOrderDeterministic(t *testing.T) {
	render := func() []byte {
		rep := AnalyzeSource([]byte(brokenVectorsBLIF), "vectors.blif", "", Options{})
		if rep.Algebra != nil {
			rep.Algebra.AnalysisMicros = 0
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := render()
	if n := bytes.Count(first, []byte("not a contiguous 0-based bit range")); n != 4 {
		t.Fatalf("%d broken-vector findings, want 4:\n%s", n, first)
	}
	for i := 0; i < 200; i++ {
		if again := render(); !bytes.Equal(first, again) {
			t.Fatalf("call %d reports in another order:\n%s\n%s", i, first, again)
		}
	}
}
