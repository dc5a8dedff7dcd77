package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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
// // and /* */ comments. Behavioral constructs are rejected. All syntax and
// structure failures are wrapped in ErrParse.
func ReadVerilog(r io.Reader) (*Netlist, error) {
	toks, err := lexVerilog(r)
	if err != nil {
		return nil, parseError(err)
	}
	p := &vParser{toks: toks}
	n, err := p.parseModule()
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

type vToken struct {
	kind byte // 'i' ident, 'n' number, or a punctuation char
	text string
	line int
}

func lexVerilog(r io.Reader) ([]vToken, error) {
	var toks []vToken
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 256*1024*1024)
	line := 0
	inBlockComment := false
	for sc.Scan() {
		line++
		s := sc.Text()
		i := 0
		for i < len(s) {
			if inBlockComment {
				if j := strings.Index(s[i:], "*/"); j >= 0 {
					i += j + 2
					inBlockComment = false
					continue
				}
				i = len(s)
				continue
			}
			c := s[i]
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case strings.HasPrefix(s[i:], "//"):
				i = len(s)
			case strings.HasPrefix(s[i:], "/*"):
				inBlockComment = true
				i += 2
			case c == '_' || c == '\\' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
				j := i
				if c == '\\' { // escaped identifier: up to whitespace
					j++
					for j < len(s) && s[j] != ' ' && s[j] != '\t' {
						j++
					}
					toks = append(toks, vToken{'i', s[i+1 : j], line})
					i = j
					continue
				}
				for j < len(s) && (s[j] == '_' || s[j] == '$' ||
					s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' ||
					s[j] >= '0' && s[j] <= '9') {
					j++
				}
				toks = append(toks, vToken{'i', s[i:j], line})
				i = j
			case c >= '0' && c <= '9':
				j := i
				for j < len(s) && (s[j] >= '0' && s[j] <= '9' ||
					s[j] == '\'' || s[j] == 'b' || s[j] == 'h' || s[j] == 'd' ||
					s[j] >= 'a' && s[j] <= 'f' || s[j] >= 'A' && s[j] <= 'F') {
					j++
				}
				toks = append(toks, vToken{'n', s[i:j], line})
				i = j
			case strings.IndexByte("()[],;=~&^|:", c) >= 0:
				toks = append(toks, vToken{c, string(c), line})
				i++
			default:
				return nil, fmt.Errorf("verilog: line %d: unexpected character %q", line, c)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return toks, nil
}

type vParser struct {
	toks []vToken
	pos  int
	n    *Netlist

	declared map[string]bool
	outputs  []string
	// deferred gate/assign statements, resolved after all declarations.
	stmts []vStmt
}

type vStmt struct {
	kind string   // gate primitive name or "assign"
	args []string // gate: output then inputs; unused for assign
	out  string   // assign target
	expr []vToken // assign RHS tokens
	line int
}

func (p *vParser) peek() (vToken, bool) {
	if p.pos >= len(p.toks) {
		return vToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *vParser) next() (vToken, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *vParser) expect(kind byte, what string) (vToken, error) {
	t, ok := p.next()
	if !ok {
		return t, fmt.Errorf("verilog: unexpected EOF, want %s", what)
	}
	if t.kind != kind {
		return t, fmt.Errorf("verilog: line %d: got %q, want %s", t.line, t.text, what)
	}
	return t, nil
}

// parseSignalList reads "a, b, c ;" or "[7:0] v ;" after a direction
// keyword, returning expanded names.
func (p *vParser) parseSignalList() ([]string, error) {
	var names []string
	msb, lsb, vec := 0, 0, false
	if t, ok := p.peek(); ok && t.kind == '[' {
		p.pos++
		hi, err := p.expect('n', "vector msb")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(':', "':'"); err != nil {
			return nil, err
		}
		lo, err := p.expect('n', "vector lsb")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(']', "']'"); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(hi.text, "%d", &msb); err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad msb %q", hi.line, hi.text)
		}
		if _, err := fmt.Sscanf(lo.text, "%d", &lsb); err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad lsb %q", lo.line, lo.text)
		}
		vec = true
	}
	for {
		t, err := p.expect('i', "signal name")
		if err != nil {
			return nil, err
		}
		if vec {
			// Expand LSB-first (matching the generators' a0..a<m-1> port
			// convention), regardless of declaration direction.
			step := 1
			if msb < lsb {
				step = -1
			}
			for i := lsb; ; i += step {
				names = append(names, fmt.Sprintf("%s[%d]", t.text, i))
				if i == msb {
					break
				}
			}
		} else {
			names = append(names, t.text)
		}
		sep, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("verilog: unexpected EOF in declaration")
		}
		switch sep.kind {
		case ',':
			continue
		case ';':
			return names, nil
		default:
			return nil, fmt.Errorf("verilog: line %d: got %q in declaration", sep.line, sep.text)
		}
	}
}

var vGatePrims = map[string]GateType{
	"and": And, "or": Or, "xor": Xor, "xnor": Xnor,
	"nand": Nand, "nor": Nor, "not": Not, "buf": Buf,
}

func (p *vParser) parseModule() (*Netlist, error) {
	p.declared = map[string]bool{}
	if _, err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expect('i', "module name")
	if err != nil {
		return nil, err
	}
	p.n = New(name.text)
	// Skip the port header up to ';'.
	for {
		t, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("verilog: unterminated module header")
		}
		if t.kind == ';' {
			break
		}
	}
	var inputs []string
	for {
		t, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("verilog: missing endmodule")
		}
		if t.kind != 'i' {
			return nil, fmt.Errorf("verilog: line %d: unexpected %q", t.line, t.text)
		}
		switch t.text {
		case "endmodule":
			return p.finish(inputs)
		case "input":
			names, err := p.parseSignalList()
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, names...)
			for _, nm := range names {
				p.declared[nm] = true
			}
		case "output":
			names, err := p.parseSignalList()
			if err != nil {
				return nil, err
			}
			p.outputs = append(p.outputs, names...)
			for _, nm := range names {
				p.declared[nm] = true
			}
		case "wire":
			names, err := p.parseSignalList()
			if err != nil {
				return nil, err
			}
			for _, nm := range names {
				p.declared[nm] = true
			}
		case "assign":
			out, err := p.expect('i', "assign target")
			if err != nil {
				return nil, err
			}
			target := out.text
			if t2, ok := p.peek(); ok && t2.kind == '[' {
				idx, err := p.parseIndexSuffix()
				if err != nil {
					return nil, err
				}
				target = fmt.Sprintf("%s[%d]", target, idx)
			}
			if _, err := p.expect('=', "'='"); err != nil {
				return nil, err
			}
			var expr []vToken
			for {
				t2, ok := p.next()
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: unterminated assign", out.line)
				}
				if t2.kind == ';' {
					break
				}
				expr = append(expr, t2)
			}
			p.stmts = append(p.stmts, vStmt{kind: "assign", out: target, expr: expr, line: out.line})
		default:
			prim, ok := vGatePrims[t.text]
			if !ok {
				return nil, fmt.Errorf("verilog: line %d: unsupported construct %q (structural subset only)", t.line, t.text)
			}
			_ = prim
			// Optional instance name.
			if t2, ok := p.peek(); ok && t2.kind == 'i' {
				p.pos++
			}
			if _, err := p.expect('(', "'('"); err != nil {
				return nil, err
			}
			var args []string
			for {
				a, err := p.expect('i', "port connection")
				if err != nil {
					return nil, err
				}
				nm := a.text
				if t2, ok := p.peek(); ok && t2.kind == '[' {
					idx, err := p.parseIndexSuffix()
					if err != nil {
						return nil, err
					}
					nm = fmt.Sprintf("%s[%d]", nm, idx)
				}
				args = append(args, nm)
				sep, ok := p.next()
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: unterminated gate", t.line)
				}
				if sep.kind == ')' {
					break
				}
				if sep.kind != ',' {
					return nil, fmt.Errorf("verilog: line %d: got %q in gate ports", sep.line, sep.text)
				}
			}
			if _, err := p.expect(';', "';'"); err != nil {
				return nil, err
			}
			p.stmts = append(p.stmts, vStmt{kind: t.text, args: args, line: t.line})
		}
	}
}

func (p *vParser) parseIndexSuffix() (int, error) {
	if _, err := p.expect('[', "'['"); err != nil {
		return 0, err
	}
	n, err := p.expect('n', "index")
	if err != nil {
		return 0, err
	}
	var idx int
	if _, err := fmt.Sscanf(n.text, "%d", &idx); err != nil {
		return 0, fmt.Errorf("verilog: line %d: bad index %q", n.line, n.text)
	}
	if _, err := p.expect(']', "']'"); err != nil {
		return 0, err
	}
	return idx, nil
}

func (p *vParser) expectKeyword(kw string) (vToken, error) {
	t, err := p.expect('i', fmt.Sprintf("%q", kw))
	if err != nil {
		return t, err
	}
	if t.text != kw {
		return t, fmt.Errorf("verilog: line %d: got %q, want %q", t.line, t.text, kw)
	}
	return t, nil
}

// finish resolves the deferred statements into gates. Statements may appear
// in any order; dependencies are resolved by demand-driven elaboration.
func (p *vParser) finish(inputs []string) (*Netlist, error) {
	for _, nm := range inputs {
		if _, err := p.n.AddInput(nm); err != nil {
			return nil, err
		}
	}
	// Index statements by the signal they drive.
	type driver struct {
		stmt  vStmt
		state int // 0 unvisited, 1 visiting, 2 done
	}
	drivers := map[string]*driver{}
	for _, st := range p.stmts {
		out := st.out
		if st.kind != "assign" {
			out = st.args[0]
		}
		if _, dup := drivers[out]; dup {
			return nil, fmt.Errorf("verilog: line %d: signal %q driven twice", st.line, out)
		}
		drivers[out] = &driver{stmt: st}
	}

	var build func(name string, line int) (int, error)
	var elabStmt func(d *driver) (int, error)
	build = func(name string, line int) (int, error) {
		if id, ok := p.n.Lookup(name); ok {
			return id, nil
		}
		d, ok := drivers[name]
		if !ok {
			return 0, fmt.Errorf("verilog: line %d: signal %q has no driver", line, name)
		}
		switch d.state {
		case 1:
			return 0, fmt.Errorf("verilog: combinational cycle through %q", name)
		case 2:
			id, _ := p.n.Lookup(name)
			return id, nil
		}
		d.state = 1
		id, err := elabStmt(d)
		if err != nil {
			return 0, err
		}
		d.state = 2
		return id, nil
	}

	elabStmt = func(d *driver) (int, error) {
		st := d.stmt
		var id int
		var err error
		if st.kind == "assign" {
			ep := &vExprParser{toks: st.expr, build: func(nm string) (int, error) { return build(nm, st.line) }, n: p.n, line: st.line}
			id, err = ep.parseOr()
			if err != nil {
				return 0, err
			}
			if !ep.done() {
				return 0, fmt.Errorf("verilog: line %d: trailing tokens in assign", st.line)
			}
		} else {
			ty := vGatePrims[st.kind]
			nin := len(st.args) - 1
			if nin < 1 || ty.Arity() == 1 && nin != 1 || ty.Arity() == 2 && nin < 2 {
				return 0, fmt.Errorf("verilog: line %d: %s with %d inputs", st.line, st.kind, nin)
			}
			fanin := make([]int, nin)
			for i := 0; i < nin; i++ {
				if fanin[i], err = build(st.args[i+1], st.line); err != nil {
					return 0, err
				}
			}
			id, err = p.emitPrim(ty, fanin, st.line)
			if err != nil {
				return 0, err
			}
		}
		out := st.out
		if st.kind != "assign" {
			out = st.args[0]
		}
		// The RHS may have reduced to an already-named node (input or a
		// previously named gate); buffer so the name binds uniquely.
		if p.nameBound(id) {
			if id, err = p.n.AddGate(Buf, id); err != nil {
				return 0, err
			}
		}
		if err := p.n.SetSignalName(id, out); err != nil {
			return 0, err
		}
		return id, nil
	}

	// Elaborate every driven signal (keeps dangling logic, mirrors ReadBLIF).
	names := make([]string, 0, len(drivers))
	for nm := range drivers {
		names = append(names, nm)
	}
	sort.Strings(names)
	for _, nm := range names {
		if _, err := build(nm, 0); err != nil {
			return nil, err
		}
	}
	for _, nm := range p.outputs {
		id, ok := p.n.Lookup(nm)
		if !ok {
			return nil, fmt.Errorf("verilog: output %q has no driver", nm)
		}
		if err := p.n.MarkOutput(nm, id); err != nil {
			return nil, err
		}
	}
	if len(p.outputs) == 0 {
		return nil, fmt.Errorf("verilog: module has no outputs")
	}
	return p.n, nil
}

// emitPrim emits a gate primitive, chaining multi-input and/or/xor (and the
// inverting variants as an inverted chain, per Verilog reduction semantics).
func (p *vParser) emitPrim(ty GateType, fanin []int, line int) (int, error) {
	if len(fanin) == ty.Arity() {
		return p.n.AddGate(ty, fanin...)
	}
	base, invert := ty, false
	switch ty {
	case Nand:
		base, invert = And, true
	case Nor:
		base, invert = Or, true
	case Xnor:
		base, invert = Xor, true
	case And, Or, Xor:
	default:
		return 0, fmt.Errorf("verilog: line %d: %v cannot take %d inputs", line, ty, len(fanin))
	}
	id := fanin[0]
	var err error
	for _, f := range fanin[1:] {
		if id, err = p.n.AddGate(base, id, f); err != nil {
			return 0, err
		}
	}
	if invert {
		return p.n.AddGate(Not, id)
	}
	return id, nil
}

// nameBound reports whether gate id already carries a name.
func (p *vParser) nameBound(id int) bool {
	nm := p.n.NameOf(id)
	got, ok := p.n.Lookup(nm)
	return ok && got == id
}

// vExprParser parses assign RHS expressions with Verilog precedence
// ~ > & > ^ > | over resolved signal IDs.
type vExprParser struct {
	toks  []vToken
	pos   int
	build func(string) (int, error)
	n     *Netlist
	line  int
}

func (e *vExprParser) done() bool { return e.pos >= len(e.toks) }

func (e *vExprParser) peek() (vToken, bool) {
	if e.done() {
		return vToken{}, false
	}
	return e.toks[e.pos], true
}

func (e *vExprParser) parseOr() (int, error) {
	id, err := e.parseXor()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := e.peek()
		if !ok || t.kind != '|' {
			return id, nil
		}
		e.pos++
		rhs, err := e.parseXor()
		if err != nil {
			return 0, err
		}
		if id, err = e.n.AddGate(Or, id, rhs); err != nil {
			return 0, err
		}
	}
}

func (e *vExprParser) parseXor() (int, error) {
	id, err := e.parseAnd()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := e.peek()
		if !ok || t.kind != '^' {
			return id, nil
		}
		e.pos++
		rhs, err := e.parseAnd()
		if err != nil {
			return 0, err
		}
		if id, err = e.n.AddGate(Xor, id, rhs); err != nil {
			return 0, err
		}
	}
}

func (e *vExprParser) parseAnd() (int, error) {
	id, err := e.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := e.peek()
		if !ok || t.kind != '&' {
			return id, nil
		}
		e.pos++
		rhs, err := e.parseUnary()
		if err != nil {
			return 0, err
		}
		if id, err = e.n.AddGate(And, id, rhs); err != nil {
			return 0, err
		}
	}
}

func (e *vExprParser) parseUnary() (int, error) {
	t, ok := e.peek()
	if !ok {
		return 0, fmt.Errorf("verilog: line %d: unexpected end of expression", e.line)
	}
	if t.kind == '~' {
		e.pos++
		id, err := e.parseUnary()
		if err != nil {
			return 0, err
		}
		return e.n.AddGate(Not, id)
	}
	return e.parsePrimary()
}

func (e *vExprParser) parsePrimary() (int, error) {
	t, ok := e.peek()
	if !ok {
		return 0, fmt.Errorf("verilog: line %d: unexpected end of expression", e.line)
	}
	e.pos++
	switch t.kind {
	case 'i':
		name := t.text
		if t2, ok := e.peek(); ok && t2.kind == '[' {
			// name[idx]
			e.pos++
			n2, ok := e.peek()
			if !ok || n2.kind != 'n' {
				return 0, fmt.Errorf("verilog: line %d: bad index", e.line)
			}
			e.pos++
			if t3, ok := e.peek(); !ok || t3.kind != ']' {
				return 0, fmt.Errorf("verilog: line %d: missing ']'", e.line)
			}
			e.pos++
			name = fmt.Sprintf("%s[%s]", name, n2.text)
		}
		return e.build(name)
	case 'n':
		switch t.text {
		case "1'b0":
			return e.n.AddGate(Const0)
		case "1'b1":
			return e.n.AddGate(Const1)
		}
		return 0, fmt.Errorf("verilog: line %d: unsupported literal %q", e.line, t.text)
	case '(':
		id, err := e.parseOr()
		if err != nil {
			return 0, err
		}
		t2, ok := e.peek()
		if !ok || t2.kind != ')' {
			return 0, fmt.Errorf("verilog: line %d: missing ')'", e.line)
		}
		e.pos++
		return id, nil
	default:
		return 0, fmt.Errorf("verilog: line %d: unexpected %q in expression", e.line, t.text)
	}
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
	for i, id := range n.outputs {
		if n.NameOf(id) != n.outputNames[i] {
			fmt.Fprintf(bw, "  assign %s = %s;\n", esc(n.outputNames[i]), esc(n.NameOf(id)))
		}
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
