package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTableISmallSizes(t *testing.T) {
	rows, err := TableI([]int{64, 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("m=%d failed: %s", r.M, r.Err)
		}
		if r.Eqns == 0 || r.Runtime <= 0 {
			t.Errorf("m=%d: empty measurements %+v", r.M, r)
		}
		if r.Paper.Eqns == 0 {
			t.Errorf("m=%d: paper row missing", r.M)
		}
	}
	// Superlinear growth shape: runtime(96) > runtime(64).
	if rows[1].Runtime <= rows[0].Runtime {
		t.Logf("warning: runtime not increasing (%v vs %v) — timing noise possible",
			rows[0].Runtime, rows[1].Runtime)
	}
	if _, err := TableI([]int{100}); err == nil {
		t.Error("non-NIST size should error")
	}
}

func TestTableIIShapeMontgomerySlower(t *testing.T) {
	mast, err := TableI([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	mont, err := TableII([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if !mont[0].OK {
		t.Fatalf("Montgomery m=64 failed: %s", mont[0].Err)
	}
	// The paper's central Table I vs II shape: Montgomery extraction is
	// more expensive than Mastrovito at equal m (paper: 42.2s vs 9.2s at
	// m=64). The packed ANF core and then the cone index removed the costs
	// that used to widen our wall-time gap (cone sorting, straggler
	// scheduling, per-bit cone sweeps over Montgomery's ~m-fold overlapping
	// cones), leaving a wall ratio of about 1.1-1.3x that timing noise can
	// invert. The guard therefore asserts the shape on the rewriting work
	// itself, which is exact: Montgomery needs ~1.8x Mastrovito's
	// substitutions at m=64 (27134 vs 14971). Wall times are logged only.
	subst := func(r Row) (s int) {
		for _, b := range r.Bits {
			s += b.Substitutions
		}
		return s
	}
	ms, mt := subst(mast[0]), subst(mont[0])
	t.Logf("substitutions: Montgomery %d, Mastrovito %d; wall: Montgomery %v, Mastrovito %v",
		mt, ms, mont[0].Runtime, mast[0].Runtime)
	if mt < ms*3/2 {
		t.Errorf("Montgomery performed %d substitutions, want >= 1.5x Mastrovito's %d at m=64", mt, ms)
	}
}

func TestTableIIISynthesisReducesCost(t *testing.T) {
	raw, err := TableI([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := TableIII([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range syn {
		if !r.OK {
			t.Errorf("%s failed: %s", r.Label, r.Err)
		}
	}
	// Synthesized Mastrovito must have fewer equations than the raw
	// matrix-form design (Table III's premise).
	if syn[0].Eqns >= raw[0].Eqns {
		t.Errorf("synthesis did not shrink Mastrovito: %d -> %d", raw[0].Eqns, syn[0].Eqns)
	}
}

func TestTableIVScaledWeightContrast(t *testing.T) {
	rows, err := TableIV(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scaled Table IV should have 2 rows, got %d", len(rows))
	}
	var tri, pen Row
	for _, r := range rows {
		if !r.OK {
			t.Fatalf("%s failed: %s", r.Label, r.Err)
		}
		switch r.Label {
		case "trinomial":
			tri = r
		case "pentanomial":
			pen = r
		}
	}
	// Weight contrast: the pentanomial multiplier has more equations (more
	// reduction XORs), the root cause of the Table IV runtime spread.
	if pen.Eqns <= tri.Eqns {
		t.Errorf("pentanomial eqns (%d) should exceed trinomial (%d)", pen.Eqns, tri.Eqns)
	}
}

func TestFigure4ScaledSeries(t *testing.T) {
	series, err := Figure4(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Bits) != 17 {
			t.Errorf("%s: %d bits", s.Arch, len(s.Bits))
		}
		if s.TotalRuntime() <= 0 {
			t.Errorf("%s: no runtime recorded", s.Arch)
		}
	}
	var buf bytes.Buffer
	WriteFigure4CSV(&buf, series)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 18 {
		t.Errorf("CSV has %d lines, want header + 17", len(lines))
	}
	if !strings.HasPrefix(lines[0], "bit,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestWriteTableRendersPaperColumns(t *testing.T) {
	rows, err := TableI([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteTable(&buf, "Table I", rows)
	out := buf.String()
	for _, want := range []string{"Table I", "Mastrovito", "21814", "9.2", "37 MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.0 KB",
		3 << 20:       "3.0 MB",
		5 << 30:       "5.0 GB",
		1<<30 + 1<<29: "1.5 GB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestArchComparison(t *testing.T) {
	rows, err := ArchComparison(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s failed: %s", r.Label, r.Err)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	rows, err := TableI([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 1 || decoded[0]["label"] != "Mastrovito" {
		t.Errorf("decoded %v", decoded)
	}
	if decoded[0]["paper_eqns"].(float64) != 21814 {
		t.Errorf("paper eqns missing: %v", decoded[0])
	}
}

func TestWriteTableRendersFailureRows(t *testing.T) {
	rows := []Row{{
		Label: "Broken", M: 8,
		Err:   "extracted x^8+1, want x^8+x^4+x^3+x+1",
		Paper: PaperRow{Mem: "MO"},
	}}
	var buf bytes.Buffer
	WriteTable(&buf, "Failure rendering", rows)
	out := buf.String()
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "MO") {
		t.Errorf("failure row not rendered:\n%s", out)
	}
}

func TestFigure4CSVEmptySeries(t *testing.T) {
	var buf bytes.Buffer
	WriteFigure4CSV(&buf, nil)
	if got := strings.TrimSpace(buf.String()); got != "bit" {
		t.Errorf("empty series CSV = %q", got)
	}
}

func TestWithCheckpointDirResumesSweep(t *testing.T) {
	dir := t.TempDir()
	// First sweep populates per-row checkpoints.
	rows, err := TableI([]int{64}, WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].OK {
		t.Fatalf("rows: %+v", rows)
	}
	sub, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || !sub[0].IsDir() {
		t.Fatalf("checkpoint dir entries: %v", sub)
	}
	// A re-run finds the completed snapshots and reuses every cone — the
	// restartable-sweep contract.
	again, err := TableI([]int{64}, WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].OK {
		t.Fatalf("resumed row failed: %s", again[0].Err)
	}
	if got := again[0].Metrics.Counters["bits_reused"]; got != 64 {
		t.Fatalf("resumed sweep reused %d cones, want 64", got)
	}
}

func TestRowSlug(t *testing.T) {
	if got := rowSlug("GF(2^163) Mastrovito"); got != "GF_2_163__Mastrovito" {
		t.Errorf("rowSlug = %q", got)
	}
}
