package netlist

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// ReadVerilog parses a structural gate-level Verilog subset — the flavor
// synthesis tools emit for flattened netlists and the most common exchange
// format for the third-party IP the paper's technique targets:
//
//	module mult ( a0, a1, b0, b1, z0, z1 );
//	  input a0, a1, b0, b1;
//	  output z0, z1;
//	  wire s2, n5;
//	  and g1 ( s2, a1, b1 );          // gate primitives: out first
//	  xor g2 ( z0, n5, s2 );
//	  assign z1 = s2 ^ n5;            // structural assigns: &, |, ^, ~, ( )
//	endmodule
//
// Supported: one module; input/output/wire declarations (scalar lists, or
// vectors like "input [7:0] a;" which expand to a[7]..a[0]); the gate
// primitives and/or/xor/xnor/nand/nor/not/buf (2-input for the binary ones);
// assign with expressions over ~ & ^ | and parentheses; 1'b0/1'b1 constants;
// // and /* */ comments. Behavioral constructs are rejected. Statements may
// come in any order; gates are numbered in file order where the file is
// topological. A file declares at most one input or output bit per byte
// of its text. All syntax and structure failures, a statement that drives
// a primary input and a declaration past that bound among them, are
// wrapped in ErrParse.
func ReadVerilog(r io.Reader) (*Netlist, error) {
	n, err := readVerilog(r)
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

func readVerilog(r io.Reader) (*Netlist, error) {
	src, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	lx := &eqnLexer{src: src, verilog: true}
	n, err := (&vParser{lx: lx, ports: len(src)}).parseModule(strings.Count(src, "("))
	for err == nil && lx.lexLine() { // what follows endmodule must lex
	}
	if lx.err != nil {
		return nil, lx.err
	}
	return n, err
}

// vClass classifies input bytes for the Verilog lexer as eqnClass does for
// EQN, with 'n' starting a number and '\\' an escaped identifier; '$'
// only continues an identifier.
var vClass = func() (c [256]byte) {
	for _, b := range []byte(" \t\r") {
		c[b] = ' '
	}
	for _, b := range []byte("()[],;=~&^|:") {
		c[b] = '='
	}
	for _, b := range []byte("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		c[b] = 'i'
	}
	for _, b := range []byte("0123456789") {
		c[b] = 'n'
	}
	c['$'], c['\\'], c['\n'], c['/'] = '$', '\\', '\n', '/'
	return c
}()

// vKind maps Verilog's operators to EQN's token kinds; other punctuation
// keeps its own byte.
var vKind = func() (k [256]byte) {
	for i := range k {
		k[i] = byte(i)
	}
	k['~'], k['&'], k['|'] = '!', '*', '+'
	return k
}()

// lexVerilogLine is lexLine for Verilog. Its tokens carry their text as the
// input has it; 1'b0 and 1'b1 are EQN's constants, any other number kind
// 'n'. A block comment may span lines.
func (lx *eqnLexer) lexVerilogLine() bool {
	src, i := lx.src, lx.off
	if i == len(src) {
		return false
	}
	lx.lineNo++
	lx.toks, lx.pos = lx.toks[:0], 0
	tok := func(kind byte, j int) {
		lx.toks = append(lx.toks, eqnToken{kind: kind, text: src[i:j], line: lx.lineNo})
		i = j
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			lx.off = i + 1
			return true
		case lx.comment:
			rest := src[i:]
			if k := strings.IndexByte(rest, '\n'); k >= 0 {
				rest = rest[:k]
			}
			if k := strings.Index(rest, "*/"); k >= 0 {
				i += k + 2
				lx.comment = false
			} else {
				i += len(rest)
			}
			continue
		}
		j := i + 1
		switch vClass[c] {
		case ' ':
			i++
		case '=':
			tok(vKind[c], j)
		case 'i':
			for j < len(src) {
				if k := vClass[src[j]]; k != 'i' && k != 'n' && k != '$' {
					break
				}
				j++
			}
			tok('i', j)
		case '\\': // an escaped identifier runs up to white space
			for j < len(src) && vClass[src[j]] != ' ' && src[j] != '\n' {
				j++
			}
			i++
			tok('i', j)
		case 'n':
			for j < len(src) && vNumber(src[j]) {
				j++
			}
			switch src[i:j] {
			case "1'b0":
				tok('0', j)
			case "1'b1":
				tok('1', j)
			default:
				tok('n', j)
			}
		case '/':
			if j < len(src) && src[j] == '/' {
				i = lx.skipComment(i)
				break
			}
			if j < len(src) && src[j] == '*' {
				lx.comment = true
				i += 2
				break
			}
			fallthrough
		default:
			if lx.err == nil {
				lx.err = fmt.Errorf("verilog: line %d: unexpected character %q", lx.lineNo, c)
			}
			i++
		}
	}
	lx.off = len(src)
	return true
}

// vNumber reports whether b continues a number such as 12 or 1'b0.
func vNumber(b byte) bool {
	return vClass[b] == 'n' || b == '\'' || b == 'h' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

// vParser reads a module's statements from the lexer and hands each to the
// elaborator as it ends.
type vParser struct {
	lx   *eqnLexer
	e    *elaborator
	args []string   // a gate primitive's connections, or an assign's signals
	rhs  []eqnToken // an assign's right-hand side
	// ports is how many more port bits the file may declare: one per input
	// byte, so a short file cannot declare a vector of millions of bits.
	ports int
}

// expect reads a token of one of the kinds.
func (p *vParser) expect(kinds string, what string) (eqnToken, error) {
	t, ok := p.lx.next()
	if !ok {
		return t, fmt.Errorf("verilog: unexpected EOF, want %s", what)
	}
	if strings.IndexByte(kinds, t.kind) < 0 {
		return t, fmt.Errorf("verilog: line %d: got %q, want %s", t.line, tokenDesc(t), what)
	}
	return t, nil
}

// number reads a number, a range bound or an index, and takes its leading
// decimal digits: 1'b1 is 1 and 8'hff is 8.
func (p *vParser) number(what string) (int, error) {
	t, err := p.expect("n01", what)
	if err != nil {
		return 0, err
	}
	k := 0
	for k < len(t.text) && vClass[t.text[k]] == 'n' {
		k++
	}
	v, err := strconv.Atoi(t.text[:k])
	if err != nil {
		return 0, fmt.Errorf("verilog: line %d: bad %s %q", t.line, what, t.text)
	}
	return v, nil
}

// signal reads a signal name, a bit select "v[3]" included.
func (p *vParser) signal(what string) (string, error) {
	t, err := p.expect("i", what)
	if err != nil {
		return "", err
	}
	return p.bitSelect(t)
}

// bitSelect returns the name identifier t starts: its text, or "v[i]" when
// a bit select follows.
func (p *vParser) bitSelect(t eqnToken) (string, error) {
	if p.lx.peekKind() != '[' {
		return t.text, nil
	}
	p.lx.pos++
	idx, err := p.number("index")
	if err != nil {
		return "", err
	}
	if _, err := p.expect("]", "']'"); err != nil {
		return "", err
	}
	return t.text + "[" + strconv.Itoa(idx) + "]", nil
}

// signalList reads "a, b, c ;" or "[7:0] v ;" after a direction keyword
// and calls add, when not nil, on every name, a vector's from its LSB. The
// port bits it declares count against p.ports before any name is built.
func (p *vParser) signalList(add func(string) error) error {
	msb, lsb, vec := 0, 0, false
	if p.lx.peekKind() == '[' {
		p.lx.pos++
		var err error
		if msb, err = p.number("vector msb"); err != nil {
			return err
		}
		if _, err := p.expect(":", "':'"); err != nil {
			return err
		}
		if lsb, err = p.number("vector lsb"); err != nil {
			return err
		}
		if _, err := p.expect("]", "']'"); err != nil {
			return err
		}
		vec = true
	}
	for {
		t, err := p.expect("i", "signal name")
		if err != nil {
			return err
		}
		if add != nil {
			span := max(msb-lsb, lsb-msb) // the vector's width less one
			if span >= p.ports {
				return fmt.Errorf("verilog: line %d: declaring %s takes the file past one port bit per input byte", t.line, t.text)
			}
			p.ports -= span + 1
		}
		switch {
		case add == nil:
		case !vec:
			err = add(t.text)
		default:
			// LSB first, matching the generators' a0..a<m-1> port
			// convention, whichever way the range is declared.
			step := 1
			if msb < lsb {
				step = -1
			}
			for i := lsb; err == nil; i += step {
				err = add(t.text + "[" + strconv.Itoa(i) + "]")
				if i == msb {
					break
				}
			}
		}
		if err != nil {
			return err
		}
		sep, ok := p.lx.next()
		if !ok {
			return fmt.Errorf("verilog: unexpected EOF in declaration")
		}
		switch sep.kind {
		case ',':
		case ';':
			return nil
		default:
			return fmt.Errorf("verilog: line %d: got %q in declaration", sep.line, tokenDesc(sep))
		}
	}
}

var vGatePrims = map[string]GateType{
	"and": And, "or": Or, "xor": Xor, "xnor": Xnor,
	"nand": Nand, "nor": Nor, "not": Not, "buf": Buf,
}

// parseModule reads the module; gates, the input's count of '(', one per
// gate instance, sizes the netlist.
func (p *vParser) parseModule(gates int) (*Netlist, error) {
	t, err := p.expect("i", `"module"`)
	if err != nil {
		return nil, err
	}
	if t.text != "module" {
		return nil, fmt.Errorf("verilog: line %d: got %q, want \"module\"", t.line, t.text)
	}
	name, err := p.expect("i", "module name")
	if err != nil {
		return nil, err
	}
	n := New(name.text)
	p.e = &elaborator{n: n, lang: "verilog", reserve: gates}
	// Skip the port header up to ';'.
	for {
		t, ok := p.lx.next()
		if !ok {
			return nil, fmt.Errorf("verilog: unterminated module header")
		}
		if t.kind == ';' {
			break
		}
	}
	addOutput := func(name string) error {
		p.e.outputs = append(p.e.outputs, name)
		return nil
	}
	for {
		t, ok := p.lx.next()
		if !ok {
			return nil, fmt.Errorf("verilog: missing endmodule")
		}
		if t.kind != 'i' {
			return nil, fmt.Errorf("verilog: line %d: unexpected %q", t.line, tokenDesc(t))
		}
		switch t.text {
		case "endmodule":
			if err := p.e.finish(); err != nil {
				return nil, err
			}
			if len(p.e.outputs) == 0 {
				return nil, fmt.Errorf("verilog: module has no outputs")
			}
			return n, nil
		case "input":
			err = p.signalList(p.e.input)
		case "output":
			err = p.signalList(addOutput)
		case "wire":
			err = p.signalList(nil)
		case "assign":
			err = p.assign()
		default:
			err = p.gate(t)
		}
		if err != nil {
			return nil, err
		}
	}
}

// assign reads "assign target = expr ;" after its keyword. The expression
// is kept as tokens, bit selects folded into names, for EQN's grammar.
func (p *vParser) assign() error {
	out, err := p.signal("assign target")
	if err != nil {
		return err
	}
	eq, err := p.expect("=", "'='")
	if err != nil {
		return err
	}
	p.rhs, p.args = p.rhs[:0], p.args[:0]
	for {
		t, ok := p.lx.next()
		if !ok {
			return fmt.Errorf("verilog: line %d: unterminated assign", eq.line)
		}
		if t.kind == 'i' {
			if t.text, err = p.bitSelect(t); err != nil {
				return err
			}
			p.args = append(p.args, t.text)
		}
		p.rhs = append(p.rhs, t)
		if t.kind == ';' {
			return p.e.add(stmt{out: out, line: eq.line, ins: p.args, toks: p.rhs})
		}
	}
}

// gate reads a gate primitive's instance, its name optional, after the
// primitive t.
func (p *vParser) gate(t eqnToken) error {
	prim, ok := vGatePrims[t.text]
	if !ok {
		return fmt.Errorf("verilog: line %d: unsupported construct %q (structural subset only)", t.line, t.text)
	}
	if p.lx.peekKind() == 'i' {
		p.lx.pos++
	}
	if _, err := p.expect("(", "'('"); err != nil {
		return err
	}
	p.args = p.args[:0]
	for {
		a, err := p.signal("port connection")
		if err != nil {
			return err
		}
		p.args = append(p.args, a)
		sep, ok := p.lx.next()
		if !ok {
			return fmt.Errorf("verilog: line %d: unterminated gate", t.line)
		}
		if sep.kind == ')' {
			break
		}
		if sep.kind != ',' {
			return fmt.Errorf("verilog: line %d: got %q in gate ports", sep.line, tokenDesc(sep))
		}
	}
	if _, err := p.expect(";", "';'"); err != nil {
		return err
	}
	if nin := len(p.args) - 1; nin < 1 || prim.Arity() == 1 && nin != 1 || prim.Arity() == 2 && nin < 2 {
		return fmt.Errorf("verilog: line %d: %s with %d inputs", t.line, t.text, nin)
	}
	return p.e.add(stmt{out: p.args[0], line: t.line, ins: p.args[1:], prim: prim})
}

// WriteVerilog renders the netlist as structural Verilog: gate primitives
// for the basic cells, assign expressions for complex cells and LUTs.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := n.Name
	if name == "" {
		name = "netlist"
	}
	// Verilog identifiers can't contain '[' unless escaped; our generated
	// names are plain, parsed vector names re-emit as escaped identifiers.
	esc := func(s string) string {
		if strings.ContainsAny(s, "[]") {
			return "\\" + s + " "
		}
		return s
	}

	var ports []string
	for _, id := range n.inputs {
		ports = append(ports, esc(n.NameOf(id)))
	}
	ports = append(ports, escAll(n.outputNames)...)
	fmt.Fprintf(bw, "module %s ( %s );\n", sanitizeVName(name), strings.Join(ports, ", "))
	for _, id := range n.inputs {
		fmt.Fprintf(bw, "  input %s;\n", esc(n.NameOf(id)))
	}
	for _, nm := range n.outputNames {
		fmt.Fprintf(bw, "  output %s;\n", esc(nm))
	}

	outputName := map[string]bool{}
	for _, nm := range n.outputNames {
		outputName[nm] = true
	}
	for id := range n.gates {
		g := n.Gate(id)
		if g.Type == Input {
			continue
		}
		if nm := n.NameOf(id); !outputName[nm] {
			fmt.Fprintf(bw, "  wire %s;\n", esc(nm))
		}
	}

	for id := range n.gates {
		g := n.Gate(id)
		switch g.Type {
		case Input:
			continue
		case Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", esc(n.NameOf(id)))
		case Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", esc(n.NameOf(id)))
		case Buf, Not, And, Or, Xor, Xnor, Nand, Nor:
			prim := strings.ToLower(g.Type.String())
			conns := []string{esc(n.NameOf(id))}
			for _, f := range g.Fanin {
				conns = append(conns, esc(n.NameOf(f)))
			}
			fmt.Fprintf(bw, "  %s g%d ( %s );\n", prim, id, strings.Join(conns, ", "))
		default:
			// Complex cells and LUTs as assign sum-of-minterms.
			fmt.Fprintf(bw, "  assign %s = %s;\n", esc(n.NameOf(id)), n.verilogExpr(g, esc))
		}
	}
	// Output ports that alias another signal get a buffer each, in name
	// order as WriteEQN writes them, so that the text reads back to a
	// netlist with this one's canonical render.
	var aliases []int
	for i, id := range n.outputs {
		if n.NameOf(id) != n.outputNames[i] {
			aliases = append(aliases, i)
		}
	}
	slices.SortStableFunc(aliases, func(i, j int) int { return strings.Compare(n.outputNames[i], n.outputNames[j]) })
	for _, i := range aliases {
		fmt.Fprintf(bw, "  assign %s = %s;\n", esc(n.outputNames[i]), esc(n.NameOf(n.outputs[i])))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

func escAll(names []string) []string {
	out := make([]string, len(names))
	for i, s := range names {
		if strings.ContainsAny(s, "[]") {
			out[i] = "\\" + s + " "
		} else {
			out[i] = s
		}
	}
	return out
}

func sanitizeVName(s string) string {
	var sb strings.Builder
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "netlist"
	}
	return sb.String()
}

// verilogExpr renders complex cells / LUTs as an assign RHS using ~ & ^ |.
func (n *Netlist) verilogExpr(g Gate, esc func(string) string) string {
	f := func(i int) string { return esc(n.NameOf(g.Fanin[i])) }
	switch g.Type {
	case Aoi21:
		return fmt.Sprintf("~(%s & %s | %s)", f(0), f(1), f(2))
	case Oai21:
		return fmt.Sprintf("~((%s | %s) & %s)", f(0), f(1), f(2))
	case Aoi22:
		return fmt.Sprintf("~(%s & %s | %s & %s)", f(0), f(1), f(2), f(3))
	case Oai22:
		return fmt.Sprintf("~((%s | %s) & (%s | %s))", f(0), f(1), f(2), f(3))
	case Mux:
		return fmt.Sprintf("~%s & %s | %s & %s", f(2), f(0), f(2), f(1))
	case Lut:
		var minterms []string
		for row, bit := range g.Table {
			if !bit {
				continue
			}
			lits := make([]string, len(g.Fanin))
			for i := range g.Fanin {
				if row&(1<<uint(i)) != 0 {
					lits[i] = f(i)
				} else {
					lits[i] = "~" + f(i)
				}
			}
			minterms = append(minterms, strings.Join(lits, " & "))
		}
		if len(minterms) == 0 {
			return "1'b0"
		}
		return strings.Join(minterms, " | ")
	}
	panic(fmt.Sprintf("netlist: verilogExpr on %v", g.Type))
}
