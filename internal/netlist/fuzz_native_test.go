package netlist

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Native fuzz targets for the three netlist parsers. Two properties:
//
//  1. no input, however hostile, may panic a parser (the fuzzing engine
//     turns any panic into a crasher);
//  2. anything that parses into a modestly-sized netlist with tame signal
//     names must survive a same-format write/read round trip with its port
//     counts and its simulated function intact.
//
// Property 2 is gated on tame names because the formats' identifier sets
// are not closed under each other: a BLIF name with brackets, say, is legal
// BLIF but becomes an expression when re-lexed — that is a property of the
// format, not a bug. Seed corpora live under testdata/fuzz/<FuzzName>/.

// fuzzGateLimit bounds round-trip checking: LUT expansion is exponential in
// fanin, so unbounded netlists would turn the fuzzer into a memory test.
const fuzzGateLimit = 5000

var fuzzKeywords = map[string]bool{
	"INORDER": true, "OUTORDER": true,
	"module": true, "endmodule": true, "input": true, "output": true,
	"wire": true, "assign": true, "not": true, "and": true, "or": true,
	"xor": true, "xnor": true, "nand": true, "nor": true, "buf": true,
}

// tameNames reports whether every signal name is a plain identifier that is
// valid (and self-delimiting) in all three formats.
func tameNames(n *Netlist) bool {
	ok := func(s string) bool {
		if s == "" || fuzzKeywords[s] || s[0] >= '0' && s[0] <= '9' {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				return false
			}
		}
		return true
	}
	for id := 0; id < n.NumGates(); id++ {
		if nm := n.NameOf(id); nm != "" && !ok(nm) {
			return false
		}
	}
	for _, nm := range n.OutputNames() {
		if !ok(nm) {
			return false
		}
	}
	return true
}

// roundTrip re-serializes n in the same format and checks the function.
func roundTrip(t *testing.T, n *Netlist,
	write func(*Netlist, *bytes.Buffer) error, read func(*bytes.Buffer) (*Netlist, error)) {
	t.Helper()
	if n.NumGates() > fuzzGateLimit || len(n.Outputs()) == 0 || !tameNames(n) {
		return
	}
	var buf bytes.Buffer
	if err := write(n, &buf); err != nil {
		t.Fatalf("re-serializing a parsed netlist failed: %v", err)
	}
	text := buf.String()
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("round trip does not re-parse: %v\n%s", err, text)
	}
	if len(back.Inputs()) != len(n.Inputs()) || len(back.Outputs()) != len(n.Outputs()) {
		t.Fatalf("round trip changed port counts %d/%d -> %d/%d\n%s",
			len(n.Inputs()), len(n.Outputs()), len(back.Inputs()), len(back.Outputs()), text)
	}
	words := make([]uint64, len(n.Inputs()))
	for i := range words {
		// A fixed but bit-diverse pattern: 64 lanes already enumerate every
		// combination of the first 6 inputs.
		words[i] = 0x123456789abcdef0 * uint64(2*i+1)
	}
	v1, err := n.Simulate(words)
	if err != nil {
		return // cyclic or otherwise unsimulatable: nothing to compare
	}
	v2, err := back.Simulate(words)
	if err != nil {
		t.Fatalf("round trip broke simulation: %v\n%s", err, text)
	}
	o1, o2 := n.OutputWords(v1), back.OutputWords(v2)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("round trip changed the function at output %d\n%s", i, text)
		}
	}
}

func FuzzEqn(f *testing.F) {
	f.Add([]byte("INORDER = a b;\nOUTORDER = z;\nz = a ^ b;\n"))
	f.Add([]byte("INORDER = a;\nOUTORDER = z;\nn1 = !a;\nz = n1 * a + 1;\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		n, err := ReadEQN(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		// Self names resolve without the hash index, every other name
		// through it: both must find their gates.
		for id, name := range n.names {
			if name == "" {
				continue
			}
			if got, ok := n.Lookup(n.NameOf(id)); !ok || got != id {
				t.Fatalf("Lookup(NameOf(%d) = %q) = %d, %v", id, n.NameOf(id), got, ok)
			}
		}
		roundTrip(t, n,
			func(n *Netlist, b *bytes.Buffer) error { return n.WriteEQN(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadEQN(b, "fuzz") })
	})
}

func FuzzBLIF(f *testing.F) {
	f.Add([]byte(".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n"))
	f.Add([]byte(".model m\n.inputs a\n.outputs z\n.names a z\n0 1\n.end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		n, err := ReadBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, n,
			func(n *Netlist, b *bytes.Buffer) error { return n.WriteBLIF(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadBLIF(b) })
	})
}

func FuzzVerilog(f *testing.F) {
	f.Add([]byte("module m(a, b, z);\ninput a, b;\noutput z;\nassign z = a ^ b;\nendmodule\n"))
	f.Add([]byte("module m(a, z);\ninput a;\noutput z;\nwire w;\nxor g1(w, a, a);\nnot g2(z, w);\nendmodule\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		n, err := ReadVerilog(bytes.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, n,
			func(n *Netlist, b *bytes.Buffer) error { return n.WriteVerilog(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadVerilog(b) })
	})
}

// TestSynthesizedNameCollisionRoundTrips pins the FuzzEqn seed
// seed-synthesized-name-collision: anonymous gate 4 would be written as
// "n4", the name another gate carries, so every writer must pick a free
// name for it instead. Re-reading a written technology-mapped design hits
// the same clash wherever an expanded cell's anonymous sub-gates shift the
// gate IDs.
func TestSynthesizedNameCollisionRoundTrips(t *testing.T) {
	n, err := ReadEQN(strings.NewReader("INORDER=a;OUTORDER=a;A0=0;A00=0;n4=0*0;"), "collide")
	if err != nil {
		t.Fatal(err)
	}
	other, _ := n.Lookup("n4")
	if other == 4 || n.names[4] != "" {
		t.Fatalf("test premise: gate 4 must be anonymous and n4 another gate (n4 = gate %d)", other)
	}
	if nm := n.NameOf(4); nm == "n4" {
		t.Fatalf("anonymous gate 4 is written as %q, the name of gate %d", nm, other)
	}
	src, err := os.Open("../../testdata/digitserial8_mapped.eqn")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := ReadEQN(src, "mapped")
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		write func(*Netlist, *bytes.Buffer) error
		read  func(*bytes.Buffer) (*Netlist, error)
	}{
		{"eqn", func(n *Netlist, b *bytes.Buffer) error { return n.WriteEQN(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadEQN(b, "collide") }},
		{"blif", func(n *Netlist, b *bytes.Buffer) error { return n.WriteBLIF(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadBLIF(b) }},
		{"verilog", func(n *Netlist, b *bytes.Buffer) error { return n.WriteVerilog(b) },
			func(b *bytes.Buffer) (*Netlist, error) { return ReadVerilog(b) }},
	} {
		t.Run(f.name, func(t *testing.T) {
			roundTrip(t, n, f.write, f.read)
			roundTrip(t, mapped, f.write, f.read)
		})
	}
}
