package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadBLIF parses a combinational subset of Berkeley BLIF:
// .model/.inputs/.outputs/.names/.end, with single-output covers of up to
// 16 inputs. Latches, subcircuits and multiple models are not supported —
// the paper's benchmarks are flattened combinational multipliers.
//
// Unlike the equation format, BLIF allows .names blocks in any order;
// ReadBLIF resolves forward references by topologically ordering the blocks
// before building gates. All syntax and structure failures are wrapped in
// ErrParse.
func ReadBLIF(r io.Reader) (*Netlist, error) {
	n, err := readBLIF(r)
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

func readBLIF(r io.Reader) (*Netlist, error) {
	type namesBlock struct {
		inputs []string
		output string
		cover  []string // cover rows "<in-bits> <out-bit>"
		line   int
	}

	lr := newBLIFLines(r)
	var (
		model   string
		inputs  []string
		outputs []string
		blocks  []*namesBlock
		cur     *namesBlock
	)
	for {
		line, ok := lr.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names needs at least an output", lr.lineNo)
			}
			cur = &namesBlock{
				inputs: fields[1 : len(fields)-1],
				output: fields[len(fields)-1],
				line:   lr.lineNo,
			}
			blocks = append(blocks, cur)
		case ".end":
			cur = nil
		case ".latch", ".subckt", ".gate":
			return nil, fmt.Errorf("blif: line %d: %s not supported (combinational netlists only)", lr.lineNo, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				continue // tolerate unknown dot-directives
			}
			if cur == nil {
				return nil, fmt.Errorf("blif: line %d: cover row outside .names", lr.lineNo)
			}
			cur.cover = append(cur.cover, line)
		}
	}
	if err := lr.sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}

	n := New(model)
	for _, name := range inputs {
		if _, err := n.AddInput(name); err != nil {
			return nil, err
		}
	}

	// Topologically order blocks by signal dependencies.
	byOutput := make(map[string]*namesBlock, len(blocks))
	for _, b := range blocks {
		if _, dup := byOutput[b.output]; dup {
			return nil, fmt.Errorf("blif: line %d: signal %q defined twice", b.line, b.output)
		}
		if _, in := n.Lookup(b.output); in {
			return nil, fmt.Errorf("blif: line %d: .names drives primary input %q", b.line, b.output)
		}
		byOutput[b.output] = b
	}
	// A built block's gate carries its name, so Lookup finds it; a block
	// met again while its fanins are still being built closes a cycle.
	visiting := make(map[string]bool)
	var build func(name string) (int, error)
	build = func(name string) (int, error) {
		if id, ok := n.Lookup(name); ok {
			return id, nil
		}
		b, ok := byOutput[name]
		if !ok {
			return 0, fmt.Errorf("blif: signal %q has no driver", name)
		}
		if visiting[name] {
			return 0, fmt.Errorf("blif: combinational cycle through %q", name)
		}
		visiting[name] = true
		fanin := make([]int, len(b.inputs))
		for i, in := range b.inputs {
			id, err := build(in)
			if err != nil {
				return 0, err
			}
			fanin[i] = id
		}
		table, err := coverToTable(b.inputs, b.cover, b.line)
		if err != nil {
			return 0, err
		}
		var id int
		if len(fanin) == 0 {
			t := Const0
			if table[0] {
				t = Const1
			}
			id, err = n.AddGate(t)
		} else {
			id, err = n.AddLut(table, fanin...)
		}
		if err != nil {
			return 0, err
		}
		if err := n.SetSignalName(id, name); err != nil {
			return 0, err
		}
		return id, nil
	}
	// Build every block (not only output cones) so the netlist round-trips.
	for _, b := range blocks {
		if _, err := build(b.output); err != nil {
			return nil, err
		}
	}
	for _, name := range outputs {
		id, ok := n.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("blif: output %q has no driver", name)
		}
		if err := n.MarkOutput(name, id); err != nil {
			return nil, err
		}
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("blif: no .outputs declared")
	}
	return n, nil
}

// blifLines reads a BLIF text one logical line at a time: comments cut,
// space trimmed, backslash-continued lines joined and blank lines skipped.
// lineNo is the physical line the last logical line ended on.
type blifLines struct {
	sc      *bufio.Scanner
	lineNo  int
	pending string
}

func newBLIFLines(r io.Reader) *blifLines {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	return &blifLines{sc: sc}
}

// next returns the next logical line, or false at the end of the input or
// at a read error, which lr.sc.Err reports.
func (lr *blifLines) next() (string, bool) {
	for lr.sc.Scan() {
		lr.lineNo++
		line := lr.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if lr.pending != "" {
			line = lr.pending + " " + line
			lr.pending = ""
		}
		if strings.HasSuffix(line, "\\") {
			lr.pending = strings.TrimSuffix(line, "\\")
			continue
		}
		if line == "" {
			continue
		}
		return line, true
	}
	return "", false
}

// WalkBLIF calls visit for every input and output declaration and every
// .names block of a BLIF text, in order, as ReadBLIF's line reader reads
// it. It never fails, so it can describe a text ReadBLIF rejects: cover
// rows, other directives and .names lines without an output are skipped,
// and a read error ends the walk. visit may keep its argument.
func WalkBLIF(r io.Reader, visit func(Statement)) {
	lr := newBLIFLines(r)
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

// coverToTable converts a BLIF single-output cover into a truth table.
func coverToTable(inputs []string, cover []string, line int) ([]bool, error) {
	k := len(inputs)
	if k > 16 {
		return nil, fmt.Errorf("blif: line %d: %d-input .names too wide (max 16)", line, k)
	}
	table := make([]bool, 1<<uint(k))
	if len(cover) == 0 {
		return table, nil // constant 0
	}
	outVal := byte(0)
	for rowIdx, row := range cover {
		fields := strings.Fields(row)
		var inPat, outPat string
		switch {
		case k == 0 && len(fields) == 1:
			inPat, outPat = "", fields[0]
		case len(fields) == 2:
			inPat, outPat = fields[0], fields[1]
		default:
			return nil, fmt.Errorf("blif: line %d: malformed cover row %q", line, row)
		}
		if len(inPat) != k {
			return nil, fmt.Errorf("blif: line %d: cover row %q has %d literals for %d inputs", line, row, len(inPat), k)
		}
		if outPat != "0" && outPat != "1" {
			return nil, fmt.Errorf("blif: line %d: cover output %q", line, outPat)
		}
		if rowIdx == 0 {
			outVal = outPat[0]
		} else if outPat[0] != outVal {
			return nil, fmt.Errorf("blif: line %d: mixed on-set and off-set rows", line)
		}
		// Expand the cube across don't-cares.
		expand := func(apply func(idx int)) error {
			idx := 0
			var dcBits []int
			for i := 0; i < k; i++ {
				switch inPat[i] {
				case '1':
					idx |= 1 << uint(i)
				case '0':
				case '-':
					dcBits = append(dcBits, i)
				default:
					return fmt.Errorf("blif: line %d: bad literal %q", line, inPat[i])
				}
			}
			for dc := 0; dc < 1<<uint(len(dcBits)); dc++ {
				v := idx
				for j, bitPos := range dcBits {
					if dc&(1<<uint(j)) != 0 {
						v |= 1 << uint(bitPos)
					}
				}
				apply(v)
			}
			return nil
		}
		if err := expand(func(idx int) { table[idx] = true }); err != nil {
			return nil, err
		}
	}
	if outVal == '0' {
		for i := range table {
			table[i] = !table[i]
		}
	}
	return table, nil
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
