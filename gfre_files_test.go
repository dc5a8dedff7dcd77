package gfre_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gfre "github.com/galoisfield/gfre"
)

// The golden netlists under testdata/ are committed files regenerated by
// cmd/gentestdata; these tests exercise the full file-based workflow a user
// of the tools goes through.

func openTestdata(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file (run go run ./cmd/gentestdata): %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestGoldenFilesExtract(t *testing.T) {
	cases := []struct {
		file   string
		format string
		wantP  string
	}{
		{"mastrovito16.eqn", "eqn", "x^16+x^5+x^3+x+1"},
		{"montgomery12.blif", "blif", "x^12+x^3+1"},
		{"karatsuba16_syn.v", "verilog", "x^16+x^5+x^3+x+1"},
		{"digitserial8_mapped.eqn", "eqn", "x^8+x^4+x^3+x+1"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			f := openTestdata(t, tc.file)
			var n *gfre.Netlist
			var err error
			switch tc.format {
			case "eqn":
				n, err = gfre.ReadEQN(f, tc.file)
			case "blif":
				n, err = gfre.ReadBLIF(f)
			case "verilog":
				n, err = gfre.ReadVerilog(f)
			}
			if err != nil {
				t.Fatal(err)
			}
			ext, err := gfre.Extract(n, gfre.Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := ext.P.String(); got != tc.wantP {
				t.Errorf("extracted %s, want %s", got, tc.wantP)
			}
			if !ext.Verified {
				t.Error("not verified")
			}
		})
	}
}

func TestGoldenTrojanDetected(t *testing.T) {
	f := openTestdata(t, "trojan8.eqn")
	n, err := gfre.ReadEQN(f, "trojan8")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gfre.Extract(n, gfre.Options{})
	if err == nil {
		t.Fatal("trojaned netlist should fail verification")
	}
	if !errors.Is(err, gfre.ErrMismatch) && !errors.Is(err, gfre.ErrNotIrreducible) &&
		!errors.Is(err, gfre.ErrNotMultiplier) {
		t.Errorf("unexpected error class: %v", err)
	}
}

func TestGoldenScrambledNeedsInference(t *testing.T) {
	f := openTestdata(t, "scrambled16.eqn")
	n, err := gfre.ReadEQN(f, "scrambled16")
	if err != nil {
		t.Fatal(err)
	}
	// Positional extraction misinterprets the scrambled ports…
	if _, err := gfre.Extract(n, gfre.Options{}); err == nil {
		t.Log("note: positional extraction accidentally succeeded on this permutation")
	}
	// …but inference recovers the exact field.
	ext, ports, err := gfre.ExtractInferred(n, gfre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ext.P.String(); got != "x^16+x^5+x^3+x+1" {
		t.Errorf("extracted %s", got)
	}
	if len(ports.A) != 16 || len(ports.B) != 16 {
		t.Errorf("ports malformed: %d/%d", len(ports.A), len(ports.B))
	}
}

func TestGoldenVerifyAgainstKnownP(t *testing.T) {
	f := openTestdata(t, "mastrovito16.eqn")
	n, err := gfre.ReadEQN(f, "mastrovito16")
	if err != nil {
		t.Fatal(err)
	}
	p := gfre.MustParsePoly("x^16+x^5+x^3+x+1")
	if _, err := gfre.VerifyAgainst(n, p, gfre.Options{}); err != nil {
		t.Errorf("verification against the known P failed: %v", err)
	}
}

// TestCommittedBENCHFiles decodes every committed BENCH_<arch>_m<m>.json
// as the report of `gfre -json -stats` on the matching gfmultgen design.
// Unknown fields are rejected, so a change to the report's shape has to
// regenerate the files (README, "Observability").
func TestCommittedBENCHFiles(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json files")
	}
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			var arch string
			var m int
			if _, err := fmt.Sscanf(strings.ReplaceAll(path, "_", " "), "BENCH %s m%d.json", &arch, &m); err != nil {
				t.Fatalf("file name does not read BENCH_<arch>_m<m>.json: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Polynomial     string  `json:"polynomial"`
				M              int     `json:"m"`
				Verified       bool    `json:"verified"`
				RuntimeSeconds float64 `json:"runtime_seconds"`
				Threads        int     `json:"threads"`
				ReusedCones    int     `json:"reused_cones"`
				Equations      int     `json:"equations"`
				Lint           struct {
					Errors               int    `json:"errors"`
					Warnings             int    `json:"warnings"`
					Infos                int    `json:"infos"`
					Fingerprint          string `json:"fingerprint"`
					PredictedPeakTerms   int    `json:"predicted_peak_terms"`
					ActualPeakTerms      int    `json:"actual_peak_terms"`
					SuggestedBudgetTerms int    `json:"suggested_budget_terms"`
				} `json:"lint"`
				Bits []struct {
					Bit        int    `json:"bit"`
					Name       string `json:"name"`
					FinalTerms int    `json:"final_terms"`
				} `json:"bits"`
				Trace     []*gfre.TraceNode `json:"trace"`
				Diagnosis *gfre.Diagnosis   `json:"diagnosis"`
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("not a gfre -json report: %v", err)
			}
			p, err := gfre.DefaultPolynomial(m)
			if err != nil {
				t.Fatal(err)
			}
			if rep.M != m || rep.Polynomial != p.String() || !rep.Verified {
				t.Errorf("m = %d, P = %s, verified %v; want m = %d, P = %v, verified", rep.M, rep.Polynomial, rep.Verified, m, p)
			}
			if len(rep.Bits) != m {
				t.Errorf("%d bits, want %d (was the report made with -stats?)", len(rep.Bits), m)
			}
			if rep.Lint.Fingerprint != arch {
				t.Errorf("lint fingerprint %q, want %q", rep.Lint.Fingerprint, arch)
			}
			var roots []string
			for _, root := range rep.Trace {
				roots = append(roots, root.Name)
				if root.Name != "extraction" {
					continue
				}
				phases := map[string]bool{}
				for _, c := range root.Children {
					phases[c.Name] = true
					if c.Name != "rewrite" {
						continue
					}
					// Each cone's cost is in its span, and only there.
					if len(c.Children) != m {
						t.Errorf("rewrite span has %d per-cone children, want %d", len(c.Children), m)
					}
					for _, cone := range c.Children {
						if cone.Attrs["cone_gates"] <= 0 || cone.Attrs["subst"] <= 0 || cone.Attrs["peak_terms"] <= 0 {
							t.Errorf("cone %s: attrs %v lack its cost", cone.Name, cone.Attrs)
						}
					}
				}
				for _, want := range []string{"preflight", "rewrite", "extract", "golden-model", "verify"} {
					if !phases[want] {
						t.Errorf("extraction span has no %q child (have %v)", want, phases)
					}
				}
			}
			if n := strings.Count(strings.Join(roots, " "), "extraction"); n != 1 {
				t.Errorf("trace roots %v, want one extraction root", roots)
			}
		})
	}
}
