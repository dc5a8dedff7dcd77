package netlint

import (
	"bytes"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/netlist"
)

// TestGfreAndGflintChooseSameFormat: gfre's -format auto (netlist.Read
// with "auto") and gflint without -format (AnalyzeSource with "", which
// asks netlist.DetectFormat) pick the same reader for every extension
// either knows, and sniff the content behind an unknown one.
func TestGfreAndGflintChooseSameFormat(t *testing.T) {
	n, err := netlist.ReadEQN(strings.NewReader(`INORDER = a0 a1 b0 b1;
OUTORDER = z0 z1;
s2 = a1 * b1;
z0 = (a0 * b0) ^ s2;
z1 = (a0 * b1) ^ (a1 * b0) ^ s2;
`), "gf4")
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]*bytes.Buffer{"eqn": {}, "blif": {}, "verilog": {}}
	for format, write := range map[string]func(*bytes.Buffer) error{
		"eqn":     func(b *bytes.Buffer) error { return n.WriteEQN(b) },
		"blif":    func(b *bytes.Buffer) error { return n.WriteBLIF(b) },
		"verilog": func(b *bytes.Buffer) error { return n.WriteVerilog(b) },
	} {
		if err := write(bodies[format]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ file, want string }{
		{"m.eqn", "eqn"}, {"m.EQN", "eqn"}, {"m.eq", "eqn"},
		{"m.blif", "blif"},
		{"m.v", "verilog"}, {"m.sv", "verilog"}, {"m.vh", "verilog"}, {"m.vg", "verilog"},
		{"m.net", "blif"}, {"m.txt", "verilog"}, {"m", "eqn"}, // sniffed
	} {
		data := bodies[tc.want].Bytes()
		if got := netlist.DetectFormat(tc.file, data); got != tc.want {
			t.Errorf("%s: DetectFormat = %q, want %q", tc.file, got, tc.want)
		}
		back, err := netlist.Read(bytes.NewReader(data), "auto", tc.file)
		if err != nil {
			t.Errorf("%s: gfre's reader: %v", tc.file, err)
		} else if len(back.Outputs()) != 2 {
			t.Errorf("%s: gfre's reader found %d outputs, want 2", tc.file, len(back.Outputs()))
		}
		for _, f := range AnalyzeSource(data, tc.file, "", Options{}).Findings {
			if f.Rule == "parse" {
				t.Errorf("%s: gflint chose a reader that fails: %s", tc.file, f.Message)
			}
		}
	}
	if _, err := netlist.Read(bytes.NewReader(nil), "pdf", "m.pdf"); err == nil {
		t.Error("unknown format accepted")
	}
}
