package netlint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNetlint asserts the linter's hard properties on arbitrary input: it
// never panics, it is deterministic — the same bytes always yield
// byte-identical reports, for every format path (auto-detect, EQN, BLIF) —
// and the source rules are silent on every text the format's reader
// accepts, which is what lets AnalyzeSource skip them there. Seeds cover
// the interesting repros: a combinational cycle, a multi-driven signal, a
// self-loop, undriven references, a BLIF block driving an input, and clean
// designs in both formats.
func FuzzNetlint(f *testing.F) {
	f.Add([]byte("INORDER = a0 a1 b0 b1;\nOUTORDER = z0 z1;\np = a0 * b0;\nz0 = p ^ a1;\nz1 = p;\n"))
	// Cycle: u -> w -> v -> u.
	f.Add([]byte("INORDER = a0 b0;\nOUTORDER = z0 z1;\nu = a0 ^ w;\nv = u * b0;\nw = v ^ a0;\nz0 = u;\nz1 = v;\n"))
	// Multi-driven p.
	f.Add([]byte("INORDER = a0 a1 b0 b1;\nOUTORDER = z0 z1;\np = a0 * b0;\np = a1 * b1;\nz0 = p;\nz1 = p;\n"))
	// Self-loop.
	f.Add([]byte("INORDER = a0 b0;\nOUTORDER = z0;\nz0 = z0 ^ a0;\n"))
	// Undriven reference + undriven output.
	f.Add([]byte("INORDER = a0;\nOUTORDER = z0 zx;\nz0 = a0 * ghost;\n"))
	// Clean BLIF and a BLIF cycle.
	f.Add([]byte(".model t\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n"))
	f.Add([]byte(".model c\n.inputs a\n.outputs z\n.names a y x\n11 1\n.names x y\n1 1\n.names x z\n1 1\n.end\n"))
	f.Add([]byte(".model t\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.names b a\n1 1\n.end\n"))
	// Degenerate scraps.
	f.Add([]byte(""))
	f.Add([]byte(";;;===;;;"))
	f.Add([]byte("OUTORDER = ;"))
	f.Add([]byte(".names\n"))
	// Two broken vectors per port side: io-naming findings in prefix order.
	f.Add([]byte(brokenVectorsBLIF))

	f.Fuzz(func(t *testing.T, data []byte) {
		sourceRulesSilentIfAccepted(t, data, "eqn")
		sourceRulesSilentIfAccepted(t, data, "blif")
		for _, format := range []string{"", "eqn", "blif"} {
			rep := AnalyzeSource(data, "fuzz.input", format, Options{})
			if rep == nil {
				t.Fatalf("nil report (format %q)", format)
			}
			first, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("report not serializable (format %q): %v", format, err)
			}
			again, _ := json.Marshal(AnalyzeSource(data, "fuzz.input", format, Options{}))
			if !bytes.Equal(first, again) {
				t.Fatalf("non-deterministic report (format %q):\n%s\n%s", format, first, again)
			}
			// Renderers must hold on whatever the analyzer produced.
			var sink bytes.Buffer
			if err := rep.WriteText(&sink); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			if err := WriteSARIF(&sink, rep); err != nil {
				t.Fatalf("WriteSARIF: %v", err)
			}
		}
	})
}
