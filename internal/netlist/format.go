package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// sniffBytes is how much of an input DetectFormat looks at when the file
// name does not decide the format.
const sniffBytes = 4096

// DetectFormat names the format of a netlist ("eqn", "blif" or "verilog")
// from its file name, then from the head of its content: a known extension
// decides; otherwise ".model"/".names" mean BLIF, "module "/"endmodule"
// mean Verilog, and anything else is read as EQN. It is the one detector
// behind gfre's -format auto, gflint and Read.
func DetectFormat(name string, head []byte) string {
	if f := formatByExt(name); f != "" {
		return f
	}
	return sniffFormat(head)
}

func formatByExt(name string) string {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".eqn", ".eq":
		return "eqn"
	case ".blif":
		return "blif"
	case ".v", ".sv", ".vh", ".vg":
		return "verilog"
	}
	return ""
}

func sniffFormat(head []byte) string {
	if len(head) > sniffBytes {
		head = head[:sniffBytes]
	}
	switch {
	case bytes.Contains(head, []byte(".model")) || bytes.Contains(head, []byte(".names")):
		return "blif"
	case bytes.Contains(head, []byte("module ")) || bytes.Contains(head, []byte("endmodule")):
		return "verilog"
	}
	return "eqn"
}

// Read parses a netlist in format "eqn", "blif" or "verilog"; "auto"
// detects it with DetectFormat from name and, when the extension does not
// decide, the first bytes of r. name labels an EQN netlist (BLIF and
// Verilog carry their own model name). An unknown format is an ErrParse.
func Read(r io.Reader, format, name string) (*Netlist, error) {
	if format == "auto" {
		if format = formatByExt(name); format == "" {
			br := bufio.NewReaderSize(r, sniffBytes)
			head, _ := br.Peek(sniffBytes)
			format, r = sniffFormat(head), br
		}
	}
	switch format {
	case "eqn":
		return ReadEQN(r, name)
	case "blif":
		return ReadBLIF(r)
	case "verilog":
		return ReadVerilog(r)
	}
	return nil, fmt.Errorf("%w: unknown netlist format %q", ErrParse, format)
}
