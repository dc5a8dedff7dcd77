package netlist_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
)

// TestReadEQNStatementsSpanLines checks that the line-by-line lexer still
// reads statements that continue over several lines.
func TestReadEQNStatementsSpanLines(t *testing.T) {
	src := "INORDER = a0 a1\n  b0 b1;\nOUTORDER =\n z0;\nz0 = (a0 * b0) ^ # comment\n (a1 * b1)\n ;\n"
	n, err := netlist.ReadEQN(strings.NewReader(src), "span")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Inputs()); got != 4 {
		t.Errorf("inputs = %d, want 4", got)
	}
	if got := len(n.Outputs()); got != 1 {
		t.Errorf("outputs = %d, want 1", got)
	}
}

// TestReadEQNReportsLexErrorOverItsConsequence checks that a bad character
// is reported with its line, not as the truncated expression it leaves
// behind for the parser.
func TestReadEQNReportsLexErrorOverItsConsequence(t *testing.T) {
	src := "INORDER = a;\nOUTORDER = z;\nz = a ^\n@;\n"
	_, err := netlist.ReadEQN(strings.NewReader(src), "bad")
	if !errors.Is(err, netlist.ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "line 4: unexpected character") {
		t.Errorf("err = %q, want the line-4 lexing error", msg)
	}
}

// TestReadEQNAllocationBound guards the reader's memory: it tokenizes one
// line at a time, so parsing allocates little beyond the netlist it builds
// (21 bytes per input byte for this design). A reader that tokenizes the
// whole file before parsing allocates 78 and fails the bound.
func TestReadEQNAllocationBound(t *testing.T) {
	n, err := gen.Mastrovito(64, gf2poly.MustParse("x^64+x^4+x^3+x+1"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := netlist.ReadEQN(bytes.NewReader(buf.Bytes()), "m64"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(buf.Len())
	t.Logf("ReadEQN allocated %.1f bytes per input byte", perByte)
	if perByte > 40 {
		t.Errorf("ReadEQN allocated %.1f bytes per input byte, want at most 40", perByte)
	}
}
