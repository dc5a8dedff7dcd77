package netlist

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const sampleVerilog = `
// GF(2^2) multiplier, P(x) = x^2+x+1
module gf4_mult ( a0, a1, b0, b1, z0, z1 );
  input a0, a1, b0, b1;
  output z0, z1;
  wire s0, s2, t0, t1;
  and g0 ( s0, a0, b0 );
  and g1 ( s2, a1, b1 );
  xor g2 ( z0, s0, s2 );
  and g3 ( t0, a0, b1 );
  and g4 ( t1, a1, b0 );
  assign z1 = t0 ^ t1 ^ s2;
endmodule
`

func TestReadVerilog(t *testing.T) {
	n, err := ReadVerilog(strings.NewReader(sampleVerilog))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "gf4_mult" {
		t.Errorf("module name = %q", n.Name)
	}
	if len(n.Inputs()) != 4 || len(n.Outputs()) != 2 {
		t.Fatalf("ports: %d in, %d out", len(n.Inputs()), len(n.Outputs()))
	}
	for a := uint(0); a < 4; a++ {
		for b := uint(0); b < 4; b++ {
			vals, err := n.Simulate([]uint64{uint64(a & 1), uint64(a >> 1), uint64(b & 1), uint64(b >> 1)})
			if err != nil {
				t.Fatal(err)
			}
			outs := n.OutputWords(vals)
			got := uint(outs[0]&1) | uint(outs[1]&1)<<1
			if want := gf4Mul(a, b); got != want {
				t.Errorf("%d*%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestReadVerilogVectorsAndAssignOps(t *testing.T) {
	src := `
module vec ( a, z );
  input [3:0] a;
  output [1:0] z;
  /* z[0] = a0 & a1 | ~a2 ; z[1] = a3 ^ 1'b1 */
  assign z[0] = a[0] & a[1] | ~a[2];
  assign z[1] = a[3] ^ 1'b1;
endmodule
`
	n, err := ReadVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Inputs()); got != 4 {
		t.Fatalf("%d inputs", got)
	}
	for mask := 0; mask < 16; mask++ {
		in := make([]uint64, 4)
		for i := range in {
			in[i] = uint64(mask >> uint(i) & 1)
		}
		vals, err := n.Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		outs := n.OutputWords(vals)
		a0, a1, a2, a3 := mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0
		want0 := a0 && a1 || !a2
		want1 := !a3
		if (outs[0]&1 == 1) != want0 || (outs[1]&1 == 1) != want1 {
			t.Errorf("mask %d: got %d,%d want %v,%v", mask, outs[0]&1, outs[1]&1, want0, want1)
		}
	}
}

func TestReadVerilogOutOfOrderAndMultiInput(t *testing.T) {
	// Gates referencing signals defined later, plus a 3-input nand.
	src := `
module ooo ( a, b, c, z );
  input a, b, c; output z;
  wire t, u;
  nand g1 ( z, t, u, c );
  and g2 ( t, a, b );
  or g3 ( u, b, c );
endmodule
`
	n, err := ReadVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		in := []uint64{uint64(mask & 1), uint64(mask >> 1 & 1), uint64(mask >> 2 & 1)}
		vals, err := n.Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := mask&1 != 0, mask&2 != 0, mask&4 != 0
		want := !((a && b) && (b || c) && c)
		if got := n.OutputWords(vals)[0]&1 == 1; got != want {
			t.Errorf("mask %d: got %v want %v", mask, got, want)
		}
	}
}

func TestReadVerilogErrors(t *testing.T) {
	bad := []string{
		"module m ( z ); output z; always @(posedge clk) z <= 1; endmodule",
		"module m ( a, z ); input a; output z; endmodule",                                     // z undriven
		"module m ( a, z ); input a; output z; and g (z, a); endmodule",                       // and with 1 input
		"module m ( a, z ); input a; output z; assign z = q; endmodule",                       // no driver
		"module m ( a, z ); input a; output z; assign z = a; assign z = a; endmodule",         // double drive
		"module m ( a, z ); input a; output z; wire w; assign w = z; assign z = w; endmodule", // cycle
		"module m ( a, z ); input a; output z; assign z = (a; endmodule",                      // paren
		"module m ( a, b, z ); input a, b; output z; assign a = b; assign z = b; endmodule",   // drives an input
		"module m ( a, b, z ); input a, b; output z; buf g (a, b); assign z = b; endmodule",   // drives an input
	}
	for i, src := range bad {
		if _, err := ReadVerilog(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail:\n%s", i, src)
		}
	}
}

// TestReadVerilogDeclaredBitsBounded checks that a file declares at most
// one port bit per input byte: a short module declaring a vector of
// millions of bits fails fast with ErrParse instead of building a name per
// bit, while the same vector in a file long enough for it reads.
func TestReadVerilogDeclaredBitsBounded(t *testing.T) {
	for _, src := range []string{
		"module m ( a, z ); input [4000000:0] a; output z; assign z = a[0]; endmodule",
		"module m ( a, z ); input a; output [0:4000000] z; assign z[0] = a; endmodule",
		"module m ( a, z ); input [9223372036854775807:0] a; output z; assign z = a[0]; endmodule",
		"module m ( a, b, z ); input [40:0] a, b; output z; assign z = a[0]; endmodule",
	} {
		start := time.Now()
		_, err := ReadVerilog(strings.NewReader(src))
		if d := time.Since(start); !errors.Is(err, ErrParse) || d > 100*time.Millisecond {
			t.Errorf("%d-byte module: err %v after %v, want ErrParse in under 100ms:\n%s", len(src), err, d, src)
		}
	}
	const width = 4000
	src := fmt.Sprintf("module m ( a, z ); input [%d:0] a; output z; assign z = a[%d]; // %s\nendmodule\n",
		width-1, width-1, strings.Repeat("-", width))
	n, err := ReadVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatalf("%d-bit vector in a %d-byte file: %v", width, len(src), err)
	}
	if len(n.Inputs()) != width {
		t.Errorf("%d inputs, want %d", len(n.Inputs()), width)
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	n := buildFigure2(t)
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadVerilog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	assertSameFunction(t, n, n2)
}

func TestVerilogRoundTripComplexCellsAndLuts(t *testing.T) {
	n := New("cells")
	var ins []int
	for _, s := range []string{"a", "b", "c", "d"} {
		id, _ := n.AddInput(s)
		ins = append(ins, id)
	}
	g1, _ := n.AddGate(Aoi21, ins[0], ins[1], ins[2])
	g2, _ := n.AddGate(Oai22, ins[0], ins[1], ins[2], ins[3])
	g3, _ := n.AddGate(Mux, g1, g2, ins[3])
	c0, _ := n.AddGate(Const0)
	c1, _ := n.AddGate(Const1)
	g4, _ := n.AddGate(Xor, c0, c1)
	maj := make([]bool, 8)
	for row := range maj {
		maj[row] = (row&1)+(row>>1&1)+(row>>2&1) >= 2
	}
	g5, _ := n.AddLut(maj, g3, g4, ins[0])
	n.MarkOutput("z0", g3)
	n.MarkOutput("z1", g5)
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadVerilog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	assertSameFunction(t, n, n2)
}

func TestVerilogCrossFormat(t *testing.T) {
	// BLIF in, Verilog out, back in.
	n, err := ReadBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadVerilog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, buf.String())
	}
	assertSameFunction(t, n, n2)
}

func TestVerilogEscapedIdentifiers(t *testing.T) {
	src := "module m ( \\a[0] , z );\n input \\a[0] ;\n output z;\n assign z = ~ \\a[0] ;\nendmodule\n"
	n, err := ReadVerilog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := n.Simulate([]uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if n.OutputWords(vals)[0]&1 != 1 {
		t.Error("~0 should be 1")
	}
}
