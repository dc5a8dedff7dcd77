package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The equation format is a line-oriented text netlist in the style of ABC's
// .eqn files, extended with an XOR operator:
//
//	# comment
//	INORDER = a0 a1 b0 b1;
//	OUTORDER = z0 z1;
//	n5 = a0 * b0;            # AND
//	n6 = !(a0 + b1);         # NOR via NOT/OR
//	z0 = n5 ^ n6;            # XOR
//
// Operator precedence (high to low): ! (NOT), * (AND), ^ (XOR), + (OR);
// parentheses group. The constants 0 and 1 are literals. Assignments must
// appear in topological order (signals defined before use), which is what
// WriteEQN emits.

type eqnToken struct {
	kind byte // one of: 'i' ident, '0', '1', '=', ';', '(', ')', '!', '*', '+', '^'
	text string
	line int
}

type eqnLexer struct {
	toks []eqnToken
	pos  int
}

func isIdentRune(r byte) bool {
	return r == '_' || r == '[' || r == ']' || r == '.' ||
		r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

func lexEQN(r io.Reader) (*eqnLexer, error) {
	lx := &eqnLexer{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		for i := 0; i < len(line); {
			c := line[i]
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case strings.IndexByte("=;()!*+^", c) >= 0:
				lx.toks = append(lx.toks, eqnToken{kind: c, line: lineNo})
				i++
			case isIdentRune(c):
				j := i
				for j < len(line) && isIdentRune(line[j]) {
					j++
				}
				word := line[i:j]
				switch word {
				case "0":
					lx.toks = append(lx.toks, eqnToken{kind: '0', line: lineNo})
				case "1":
					lx.toks = append(lx.toks, eqnToken{kind: '1', line: lineNo})
				default:
					lx.toks = append(lx.toks, eqnToken{kind: 'i', text: word, line: lineNo})
				}
				i = j
			default:
				return nil, fmt.Errorf("eqn: line %d: unexpected character %q", lineNo, c)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eqn: %w", err)
	}
	return lx, nil
}

func (lx *eqnLexer) peek() (eqnToken, bool) {
	if lx.pos >= len(lx.toks) {
		return eqnToken{}, false
	}
	return lx.toks[lx.pos], true
}

func (lx *eqnLexer) next() (eqnToken, bool) {
	t, ok := lx.peek()
	if ok {
		lx.pos++
	}
	return t, ok
}

func (lx *eqnLexer) expect(kind byte) (eqnToken, error) {
	t, ok := lx.next()
	if !ok {
		return t, fmt.Errorf("eqn: unexpected end of file, want %q", kind)
	}
	if t.kind != kind {
		return t, fmt.Errorf("eqn: line %d: got %q, want %q", t.line, tokenDesc(t), kind)
	}
	return t, nil
}

func tokenDesc(t eqnToken) string {
	if t.kind == 'i' {
		return t.text
	}
	return string(t.kind)
}

type eqnParser struct {
	lx *eqnLexer
	n  *Netlist
}

// EQNName extracts the netlist name recorded in a serialized EQN body's
// leading "# <name>" comment, or fallback when there is none. WriteEQN
// always emits the header, so WriteEQN → EQNName → ReadEQN → WriteEQN
// reproduces the original bytes — which is what lets a shipped netlist's
// content hash (checkpoint.HashNetlist) verify on the receiving side.
func EQNName(eqn, fallback string) string {
	if rest, ok := strings.CutPrefix(eqn, "# "); ok {
		if name, _, ok := strings.Cut(rest, "\n"); ok && name != "" {
			return name
		}
	}
	return fallback
}

// ReadEQN parses an equation-format netlist. All syntax and structure
// failures are wrapped in ErrParse.
func ReadEQN(r io.Reader, name string) (*Netlist, error) {
	n, err := readEQN(r, name)
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

func readEQN(r io.Reader, name string) (*Netlist, error) {
	lx, err := lexEQN(r)
	if err != nil {
		return nil, err
	}
	p := &eqnParser{lx: lx, n: New(name)}
	var outOrder []string
	for {
		t, ok := lx.next()
		if !ok {
			break
		}
		if t.kind != 'i' {
			return nil, fmt.Errorf("eqn: line %d: statement must start with a name, got %q", t.line, tokenDesc(t))
		}
		switch t.text {
		case "INORDER":
			if _, err := lx.expect('='); err != nil {
				return nil, err
			}
			for {
				t2, ok := lx.next()
				if !ok {
					return nil, fmt.Errorf("eqn: INORDER not terminated")
				}
				if t2.kind == ';' {
					break
				}
				if t2.kind != 'i' {
					return nil, fmt.Errorf("eqn: line %d: bad INORDER entry %q", t2.line, tokenDesc(t2))
				}
				if _, err := p.n.AddInput(t2.text); err != nil {
					return nil, err
				}
			}
		case "OUTORDER":
			if _, err := lx.expect('='); err != nil {
				return nil, err
			}
			for {
				t2, ok := lx.next()
				if !ok {
					return nil, fmt.Errorf("eqn: OUTORDER not terminated")
				}
				if t2.kind == ';' {
					break
				}
				if t2.kind != 'i' {
					return nil, fmt.Errorf("eqn: line %d: bad OUTORDER entry %q", t2.line, tokenDesc(t2))
				}
				outOrder = append(outOrder, t2.text)
			}
		default:
			if _, err := lx.expect('='); err != nil {
				return nil, err
			}
			id, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if _, err := lx.expect(';'); err != nil {
				return nil, err
			}
			// If the RHS reduced to an already-named node, add a buffer so
			// the LHS name binds to its own gate.
			if p.n.names[id] != "" || p.n.gates[id].Type == Input {
				if id, err = p.n.AddGate(Buf, id); err != nil {
					return nil, err
				}
			}
			if err := p.n.SetSignalName(id, t.text); err != nil {
				return nil, fmt.Errorf("eqn: line %d: %w", t.line, err)
			}
		}
	}
	for _, name := range outOrder {
		id, ok := p.n.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("eqn: OUTORDER signal %q never defined", name)
		}
		if err := p.n.MarkOutput(name, id); err != nil {
			return nil, err
		}
	}
	if len(outOrder) == 0 {
		return nil, fmt.Errorf("eqn: missing OUTORDER declaration")
	}
	return p.n, nil
}

// parseOr parses xor-expr ('+' xor-expr)*.
func (p *eqnParser) parseOr() (int, error) {
	id, err := p.parseXor()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := p.lx.peek()
		if !ok || t.kind != '+' {
			return id, nil
		}
		p.lx.pos++
		rhs, err := p.parseXor()
		if err != nil {
			return 0, err
		}
		if id, err = p.n.AddGate(Or, id, rhs); err != nil {
			return 0, err
		}
	}
}

// parseXor parses and-expr ('^' and-expr)*.
func (p *eqnParser) parseXor() (int, error) {
	id, err := p.parseAnd()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := p.lx.peek()
		if !ok || t.kind != '^' {
			return id, nil
		}
		p.lx.pos++
		rhs, err := p.parseAnd()
		if err != nil {
			return 0, err
		}
		if id, err = p.n.AddGate(Xor, id, rhs); err != nil {
			return 0, err
		}
	}
}

// parseAnd parses unary ('*' unary)*.
func (p *eqnParser) parseAnd() (int, error) {
	id, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := p.lx.peek()
		if !ok || t.kind != '*' {
			return id, nil
		}
		p.lx.pos++
		rhs, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if id, err = p.n.AddGate(And, id, rhs); err != nil {
			return 0, err
		}
	}
}

func (p *eqnParser) parseUnary() (int, error) {
	t, ok := p.lx.peek()
	if !ok {
		return 0, fmt.Errorf("eqn: unexpected end of expression")
	}
	if t.kind == '!' {
		p.lx.pos++
		id, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.n.AddGate(Not, id)
	}
	return p.parsePrimary()
}

func (p *eqnParser) parsePrimary() (int, error) {
	t, ok := p.lx.next()
	if !ok {
		return 0, fmt.Errorf("eqn: unexpected end of expression")
	}
	switch t.kind {
	case 'i':
		id, ok := p.n.Lookup(t.text)
		if !ok {
			return 0, fmt.Errorf("eqn: line %d: signal %q used before definition", t.line, t.text)
		}
		return id, nil
	case '0':
		return p.n.AddGate(Const0)
	case '1':
		return p.n.AddGate(Const1)
	case '(':
		id, err := p.parseOr()
		if err != nil {
			return 0, err
		}
		if _, err := p.lx.expect(')'); err != nil {
			return 0, err
		}
		return id, nil
	default:
		return 0, fmt.Errorf("eqn: line %d: unexpected %q in expression", t.line, tokenDesc(t))
	}
}

// WriteEQN renders the netlist in equation format. Every non-input gate
// becomes one assignment in topological order; complex cells and LUTs are
// expanded into their Boolean expressions.
func (n *Netlist) WriteEQN(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", n.Name)
	fmt.Fprint(bw, "INORDER =")
	for _, id := range n.inputs {
		fmt.Fprintf(bw, " %s", n.NameOf(id))
	}
	fmt.Fprintln(bw, ";")
	fmt.Fprint(bw, "OUTORDER =")
	for _, name := range n.outputNames {
		fmt.Fprintf(bw, " %s", name)
	}
	fmt.Fprintln(bw, ";")

	// Output ports that alias an internal signal of a different name (or an
	// input) need explicit buffer assignments.
	aliased := map[string]int{}
	for i, id := range n.outputs {
		if n.NameOf(id) != n.outputNames[i] {
			aliased[n.outputNames[i]] = id
		}
	}

	for id, g := range n.gates {
		if g.Type == Input {
			continue
		}
		// Plain writes, not Fprintf: this loop is the whole cost of content
		// hashing (checkpoint.HashNetlist), which preflight pays per job.
		bw.WriteString(n.NameOf(id))
		bw.WriteString(" = ")
		bw.WriteString(n.gateExpr(g))
		bw.WriteString(";\n")
	}
	// Deterministic order for alias buffers.
	names := make([]string, 0, len(aliased))
	for name := range aliased {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "%s = %s;\n", name, n.NameOf(aliased[name]))
	}
	return bw.Flush()
}

// gateExpr renders the RHS expression of a gate in equation syntax.
func (n *Netlist) gateExpr(g Gate) string {
	f := func(i int) string { return n.NameOf(g.Fanin[i]) }
	switch g.Type {
	case Const0:
		return "0"
	case Const1:
		return "1"
	case Buf:
		return f(0)
	case Not:
		return "!" + f(0)
	case And:
		return f(0) + " * " + f(1)
	case Or:
		return f(0) + " + " + f(1)
	case Xor:
		return f(0) + " ^ " + f(1)
	case Xnor:
		return "!(" + f(0) + " ^ " + f(1) + ")"
	case Nand:
		return "!(" + f(0) + " * " + f(1) + ")"
	case Nor:
		return "!(" + f(0) + " + " + f(1) + ")"
	case Aoi21:
		return "!(" + f(0) + " * " + f(1) + " + " + f(2) + ")"
	case Oai21:
		return "!((" + f(0) + " + " + f(1) + ") * " + f(2) + ")"
	case Aoi22:
		return "!(" + f(0) + " * " + f(1) + " + " + f(2) + " * " + f(3) + ")"
	case Oai22:
		return "!((" + f(0) + " + " + f(1) + ") * (" + f(2) + " + " + f(3) + "))"
	case Mux:
		return "!" + f(2) + " * " + f(0) + " + " + f(2) + " * " + f(1)
	case Lut:
		return n.lutExpr(g)
	}
	panic(fmt.Sprintf("netlist: gateExpr on %v", g.Type))
}

// lutExpr expands a truth-table gate as a sum of minterms.
func (n *Netlist) lutExpr(g Gate) string {
	var minterms []string
	for row, bit := range g.Table {
		if !bit {
			continue
		}
		lits := make([]string, len(g.Fanin))
		for i := range g.Fanin {
			if row&(1<<uint(i)) != 0 {
				lits[i] = n.NameOf(g.Fanin[i])
			} else {
				lits[i] = "!" + n.NameOf(g.Fanin[i])
			}
		}
		minterms = append(minterms, strings.Join(lits, " * "))
	}
	if len(minterms) == 0 {
		return "0"
	}
	return strings.Join(minterms, " + ")
}
