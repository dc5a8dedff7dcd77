package netlist

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// ReadBLIF parses a combinational subset of Berkeley BLIF:
// .model/.inputs/.outputs/.names/.end, with single-output covers of up to
// 16 inputs. Latches, subcircuits and multiple models are not supported —
// the paper's benchmarks are flattened combinational multipliers.
//
// Unlike the equation format, BLIF allows .names blocks in any order: a
// block is built as soon as the signals it reads are, so a file in
// topological order is numbered in file order. All syntax and structure
// failures are wrapped in ErrParse.
func ReadBLIF(r io.Reader) (*Netlist, error) {
	n, err := readBLIF(r)
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

func readBLIF(r io.Reader) (*Netlist, error) {
	src, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	n := New("")
	e := &elaborator{n: n, lang: "blif", reserve: strings.Count(src, ".names")}
	lr := &blifLines{src: src}
	var (
		fields []string
		cur    blifBlock // the .names block being read, when cur.open
	)
	for {
		line, ok := lr.next()
		if ok {
			fields = appendFields(fields[:0], line)
		}
		if cur.open && (!ok || fields[0] == ".names" || fields[0] == ".end") {
			if err := cur.end(e); err != nil {
				return nil, err
			}
		}
		if !ok {
			break
		}
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				n.Name = fields[1]
			}
		case ".inputs":
			for _, name := range fields[1:] {
				if err := e.input(name); err != nil {
					return nil, err
				}
			}
		case ".outputs":
			e.outputs = append(e.outputs, fields[1:]...)
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names needs at least an output", lr.lineNo)
			}
			if err := cur.start(fields[1:], lr.lineNo); err != nil {
				return nil, err
			}
		case ".end":
		case ".latch", ".subckt", ".gate":
			return nil, fmt.Errorf("blif: line %d: %s not supported (combinational netlists only)", lr.lineNo, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				continue // tolerate unknown dot-directives
			}
			if !cur.open {
				return nil, fmt.Errorf("blif: line %d: cover row outside .names", lr.lineNo)
			}
			if err := cur.row(fields, lr.lineNo); err != nil {
				return nil, err
			}
		}
	}
	if err := e.finish(); err != nil {
		return nil, err
	}
	if len(e.outputs) == 0 {
		return nil, fmt.Errorf("blif: no .outputs declared")
	}
	return n, nil
}

// blifBlock is the .names block being read: its signals, and its cover
// folded into a truth table row by row. Its slices are reused from block
// to block.
type blifBlock struct {
	stmt
	open   bool // a .names line was read, and no .names or .end since
	outVal byte // the output column of the cover's rows; 0 before the first
}

// start begins the block of a ".names in... out" line.
func (b *blifBlock) start(signals []string, line int) error {
	k := len(signals) - 1
	if k > 16 {
		return fmt.Errorf("blif: line %d: %d-input .names too wide (max 16)", line, k)
	}
	b.ins = append(b.ins[:0], signals[:k]...)
	b.out, b.line = signals[k], line
	b.table = slices.Grow(b.table[:0], 1<<k)[:1<<k]
	clear(b.table)
	b.open, b.outVal = true, 0
	return nil
}

// row folds one cover row "<in-bits> <out-bit>" into the table.
func (b *blifBlock) row(fields []string, line int) error {
	k := len(b.ins)
	var inPat, outPat string
	switch {
	case k == 0 && len(fields) == 1:
		outPat = fields[0]
	case len(fields) == 2:
		inPat, outPat = fields[0], fields[1]
	default:
		return fmt.Errorf("blif: line %d: malformed cover row %q", line, strings.Join(fields, " "))
	}
	if len(inPat) != k {
		return fmt.Errorf("blif: line %d: cover row %q has %d literals for %d inputs", line, inPat, len(inPat), k)
	}
	if outPat != "0" && outPat != "1" {
		return fmt.Errorf("blif: line %d: cover output %q", line, outPat)
	}
	if b.outVal == 0 {
		b.outVal = outPat[0]
	} else if outPat[0] != b.outVal {
		return fmt.Errorf("blif: line %d: mixed on-set and off-set rows", line)
	}
	// The cube covers row idx with any subset of the don't-cares dc set.
	idx, dc := 0, 0
	for i := 0; i < k; i++ {
		switch inPat[i] {
		case '1':
			idx |= 1 << i
		case '0':
		case '-':
			dc |= 1 << i
		default:
			return fmt.Errorf("blif: line %d: bad literal %q", line, inPat[i])
		}
	}
	for sub := dc; ; sub = (sub - 1) & dc {
		b.table[idx|sub] = true
		if sub == 0 {
			return nil
		}
	}
}

// end hands the block to the elaborator.
func (b *blifBlock) end(e *elaborator) error {
	b.open = false
	if b.outVal == '0' {
		for i := range b.table {
			b.table[i] = !b.table[i]
		}
	}
	return e.add(b.stmt)
}

// blifLines reads a BLIF text one logical line at a time, in place:
// comments cut, space trimmed, backslash-continued lines joined and blank
// lines skipped. lineNo is the physical line the last logical line ended
// on.
type blifLines struct {
	src    string // src[off:] is not read yet
	off    int
	lineNo int
}

// next returns the next logical line, or false at the end of the input.
func (lr *blifLines) next() (string, bool) {
	pending := ""
	for lr.off < len(lr.src) {
		line := lr.src[lr.off:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			lr.off += i + 1
		} else {
			lr.off = len(lr.src)
		}
		lr.lineNo++
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if pending != "" {
			line = pending + " " + line
			pending = ""
		}
		if strings.HasSuffix(line, "\\") {
			pending = strings.TrimSuffix(line, "\\")
			continue
		}
		if line == "" {
			continue
		}
		return line, true
	}
	return "", false
}

// appendFields appends the space-separated fields of s to dst, as
// strings.Fields splits them, in place.
func appendFields(dst []string, s string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return append(dst[:n], strings.Fields(s)...)
		case c == ' ' || c >= '\t' && c <= '\r':
			if start >= 0 {
				dst, start = append(dst, s[start:i]), -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// WalkBLIF calls visit for every input and output declaration and every
// .names block of a BLIF text, in order, as ReadBLIF's line reader reads
// it. It never fails, so it can describe a text ReadBLIF rejects: cover
// rows, other directives and .names lines without an output are skipped,
// and a read error ends the walk. visit may keep its argument.
func WalkBLIF(r io.Reader, visit func(Statement)) {
	src, _ := readInput(r) // a read error ends the text where it struck
	lr := &blifLines{src: src}
	for {
		line, ok := lr.next()
		if !ok {
			return
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".inputs", ".outputs":
			kind := byte('i')
			if fields[0] == ".outputs" {
				kind = 'o'
			}
			for _, f := range fields[1:] {
				visit(Statement{Kind: kind, Name: f, Line: lr.lineNo})
			}
		case ".names":
			if len(fields) >= 2 {
				visit(Statement{Kind: '=', Name: fields[len(fields)-1], Deps: fields[1 : len(fields)-1], Line: lr.lineNo})
			}
		}
	}
}

// WriteBLIF renders the netlist as BLIF, one .names block per non-input
// gate, covers enumerated from each gate's truth table.
func (n *Netlist) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := n.Name
	if name == "" {
		name = "netlist"
	}
	fmt.Fprintf(bw, ".model %s\n", name)
	fmt.Fprint(bw, ".inputs")
	for _, id := range n.inputs {
		fmt.Fprintf(bw, " %s", n.NameOf(id))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, nm := range n.outputNames {
		fmt.Fprintf(bw, " %s", nm)
	}
	fmt.Fprintln(bw)

	for id := range n.gates {
		g := n.Gate(id)
		if g.Type == Input {
			continue
		}
		fmt.Fprint(bw, ".names")
		for _, f := range g.Fanin {
			fmt.Fprintf(bw, " %s", n.NameOf(f))
		}
		fmt.Fprintf(bw, " %s\n", n.NameOf(id))
		writeCover(bw, g)
	}
	// Alias buffers for outputs whose driving gate has a different name.
	for i, id := range n.outputs {
		if n.NameOf(id) != n.outputNames[i] {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", n.NameOf(id), n.outputNames[i])
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeCover(w io.Writer, g Gate) {
	k := len(g.Fanin)
	table := g.Table
	if g.Type != Lut {
		table = make([]bool, 1<<uint(k))
		in := make([]bool, k)
		for row := range table {
			for i := 0; i < k; i++ {
				in[i] = row&(1<<uint(i)) != 0
			}
			table[row] = g.Type.eval(in)
		}
	}
	if k == 0 {
		if table[0] {
			fmt.Fprintln(w, "1")
		}
		return
	}
	for row, bit := range table {
		if !bit {
			continue
		}
		lits := make([]byte, k)
		for i := 0; i < k; i++ {
			if row&(1<<uint(i)) != 0 {
				lits[i] = '1'
			} else {
				lits[i] = '0'
			}
		}
		fmt.Fprintf(w, "%s 1\n", lits)
	}
}
