package netlist_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
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

// TestReadEQNReadErrorIsParseError checks that a source failing mid-stream
// fails the read as an ErrParse-wrapped eqn error that keeps the cause,
// even when the part read before the failure parses.
func TestReadEQNReadErrorIsParseError(t *testing.T) {
	cause := errors.New("disk on fire")
	src := io.MultiReader(strings.NewReader("INORDER = a;\nOUTORDER = z;\nz = !a;\n"), iotest.ErrReader(cause))
	_, err := netlist.ReadEQN(src, "broken")
	if !errors.Is(err, netlist.ErrParse) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrParse wrapping the read error", err)
	}
	if !strings.Contains(err.Error(), "eqn: disk on fire") {
		t.Errorf("err = %q, want an eqn: read error", err)
	}
}

// TestReadEQNAllocationBound guards the readers' memory: each reads its
// input into one string and lexes it one line at a time in place, so
// parsing allocates little beyond the netlist it builds (3.5 bytes per
// input byte as EQN, 3.3 as BLIF and 2.1 as Verilog for this design). A
// reader that tokenizes the whole file before parsing allocates 66-70 and
// fails the bound.
func TestReadEQNAllocationBound(t *testing.T) {
	n, err := gen.Mastrovito(64, gf2poly.MustParse("x^64+x^4+x^3+x+1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		format string
		write  func(*netlist.Netlist, io.Writer) error
	}{
		{"eqn", (*netlist.Netlist).WriteEQN},
		{"blif", (*netlist.Netlist).WriteBLIF},
		{"verilog", (*netlist.Netlist).WriteVerilog},
	} {
		var buf bytes.Buffer
		if err := f.write(n, &buf); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := netlist.Read(bytes.NewReader(buf.Bytes()), f.format, "m64"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(buf.Len())
		t.Logf("%s: the read allocated %.1f bytes per input byte", f.format, perByte)
		if perByte > 40 {
			t.Errorf("%s: the read allocated %.1f bytes per input byte, want at most 40", f.format, perByte)
		}
	}
}

// TestReadEQNAllocationCount pins the reader's cost shape: it reads the
// input into one string, lexes in place and presizes the netlist and its
// fanin arena from the statement count, so the number of allocations does
// not grow with the design. m=163 has 6.5 times m=64's
// gates; a reader that allocates per line, per name or per gate makes tens
// of thousands of allocations at m=64 alone.
func TestReadEQNAllocationCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := map[int]float64{}
	for _, m := range []int{64, 163} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.WriteEQN(&buf); err != nil {
			t.Fatal(err)
		}
		allocs[m] = testing.AllocsPerRun(3, func() {
			if _, err := netlist.ReadEQN(bytes.NewReader(buf.Bytes()), "alloc"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("m=%d: ReadEQN made %.0f allocations for %d gates", m, allocs[m], n.NumGates())
	}
	if allocs[64] > 200 {
		t.Errorf("ReadEQN of m=64 Mastrovito made %.0f allocations, want at most 200", allocs[64])
	}
	if allocs[163] > 2*allocs[64] {
		t.Errorf("ReadEQN made %.0f allocations at m=163 against %.0f at m=64, want at most twice as many", allocs[163], allocs[64])
	}
}

// TestReadEQNIndexHoldsPortNames pins the name index at the size of a
// generated multiplier's ports: its gates are self-named, gate k "n<k>", and
// resolve from their names alone, so parsing makes no hash-table probe for
// them. An index that holds every name (54k at m=163) costs parse a cache
// miss per name.
func TestReadEQNIndexHoldsPortNames(t *testing.T) {
	const m = 163
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []struct {
		name  string
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{{"mastrovito", gen.Mastrovito}, {"montgomery", gen.Montgomery}} {
		n, err := arch.build(m, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.WriteEQN(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := netlist.ReadEQN(&buf, arch.name)
		if err != nil {
			t.Fatal(err)
		}
		ports := len(back.Inputs()) + back.NumOutputs()
		indexed := netlist.IndexedNames(back)
		t.Logf("%s m=%d: %d names indexed for %d ports and %d gates", arch.name, m, indexed, ports, back.NumGates())
		if indexed > 2*ports {
			t.Errorf("%s m=%d: the name index holds %d names, want at most %d (twice the %d ports)",
				arch.name, m, indexed, 2*ports, ports)
		}
	}
}

// TestReadVerilogSmallModuleBytes bounds the bytes a small module's read
// allocates: the lexer's scanner starts from a small buffer and grows only
// for long lines, so a few-line module does not pay for a megabyte.
func TestReadVerilogSmallModuleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const src = "module m(a, b, z);\n  input a, b;\n  output z;\n  assign z = a & b;\nendmodule\n"
	const reads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, err := netlist.Read(strings.NewReader(src), "verilog", "small.v"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("a %d-byte module: %d bytes allocated per read", len(src), perRead)
	if perRead > 128<<10 {
		t.Errorf("reading a %d-byte Verilog module allocated %d bytes, want at most 128 KiB", len(src), perRead)
	}
}

// TestReadVerilogLongLine reads a module whose assign statement is one line
// longer than the scanner's initial buffer.
func TestReadVerilogLongLine(t *testing.T) {
	const terms = 20000
	src := "module m(a, b, z);\n  input a, b;\n  output z;\n  assign z = a" +
		strings.Repeat(" ^ b ^ a", terms/2) + ";\nendmodule\n"
	if len(src) <= 64<<10 {
		t.Fatalf("line of %d bytes does not outgrow the initial buffer", len(src))
	}
	n, err := netlist.Read(strings.NewReader(src), "verilog", "long.v")
	if err != nil {
		t.Fatal(err)
	}
	// a ^ (b ^ a) repeated: an odd number of a's and an even number of b's.
	vals, err := n.Simulate([]uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0]&1 != 1 {
		t.Errorf("z(a=1, b=1) = %d, want 1", vals[0]&1)
	}
}

// TestReadersNumberInFileOrder checks that the BLIF and Verilog readers
// build each statement as it is read: a multiplier written as Verilog reads
// back with the canonical digest it was written from, and one whose
// statements are shuffled, as Verilog or as BLIF, reads to the same
// function and the same P(x).
func TestReadersNumberInFileOrder(t *testing.T) {
	for _, arch := range []struct {
		name  string
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{{"mastrovito", gen.Mastrovito}, {"montgomery", gen.Montgomery}} {
		for _, m := range []int{16, 64} {
			p, err := polytab.Default(m)
			if err != nil {
				t.Fatal(err)
			}
			n, err := arch.build(m, p)
			if err != nil {
				t.Fatal(err)
			}
			var v, b bytes.Buffer
			if err := n.WriteVerilog(&v); err != nil {
				t.Fatal(err)
			}
			if err := n.WriteBLIF(&b); err != nil {
				t.Fatal(err)
			}
			back, err := netlist.ReadVerilog(bytes.NewReader(v.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := n.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := back.Digest(); err != nil || got != want {
				t.Errorf("%s m=%d: Verilog round trip digest %s (%v), want %s", arch.name, m, got, err, want)
			}
			r := rand.New(rand.NewSource(int64(m)))
			for _, text := range []struct{ format, src string }{
				{"verilog", shuffleStatements(r, v.String(), "  assign ", "  input ", "  output ", "  wire ")},
				{"blif", shuffleStatements(r, b.String(), ".names ")},
			} {
				shuffled, err := netlist.Read(strings.NewReader(text.src), text.format, "shuffled")
				if err != nil {
					t.Fatalf("%s m=%d, shuffled %s: %v", arch.name, m, text.format, err)
				}
				if !sameFunction(t, n, shuffled) {
					t.Errorf("%s m=%d, shuffled %s: the function differs from the written design's", arch.name, m, text.format)
				}
				ext, err := extract.IrreduciblePolynomial(shuffled, extract.Options{})
				if err != nil {
					t.Fatalf("%s m=%d, shuffled %s: %v", arch.name, m, text.format, err)
				}
				if ext.P.String() != p.String() {
					t.Errorf("%s m=%d, shuffled %s: P(x) = %v, want %v", arch.name, m, text.format, ext.P, p)
				}
			}
		}
	}
}

// shuffleStatements shuffles the statements of a netlist text: the
// indented lines that start none of the kept prefixes, with the lines
// under each, for a BLIF text (kept ".names ") the blocks its kept lines
// start.
func shuffleStatements(r *rand.Rand, src string, prefixes ...string) string {
	lines := strings.SplitAfter(src, "\n")
	var head, tail []string
	var stmts [][]string
	blif := prefixes[0] == ".names "
	for _, l := range lines {
		switch {
		case blif && strings.HasPrefix(l, ".names "):
			stmts = append(stmts, []string{l})
		case blif && len(stmts) > 0 && !strings.HasPrefix(l, "."):
			stmts[len(stmts)-1] = append(stmts[len(stmts)-1], l)
		case !blif && strings.HasPrefix(l, "  ") && !hasAnyPrefix(l, prefixes[1:]):
			stmts = append(stmts, []string{l})
		case len(stmts) == 0:
			head = append(head, l)
		default:
			tail = append(tail, l)
		}
	}
	r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	out := strings.Join(head, "")
	for _, s := range stmts {
		out += strings.Join(s, "")
	}
	return out + strings.Join(tail, "")
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// sameFunction reports whether two netlists with the same ports compute
// the same function on 64 random input lanes.
func sameFunction(t *testing.T, a, b *netlist.Netlist) bool {
	t.Helper()
	if len(a.Inputs()) != len(b.Inputs()) || a.NumOutputs() != b.NumOutputs() {
		return false
	}
	r := rand.New(rand.NewSource(1))
	in := make([]uint64, len(a.Inputs()))
	for i := range in {
		in[i] = r.Uint64()
	}
	va, err := a.Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Equal(a.OutputWords(va), b.OutputWords(vb))
}
