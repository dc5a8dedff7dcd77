package netlist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
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

// eqnLexer tokenizes one line at a time as the parser asks for tokens, so
// parsing holds the current line's tokens instead of the whole file's. It
// lexes in place: every identifier is a substring of the input.
type eqnLexer struct {
	src    string // the whole input; src[off:] is not lexed yet
	off    int
	lineNo int
	toks   []eqnToken // tokens of line lineNo; toks[pos:] are unread
	pos    int
	err    error // the first lexing error; the parser's input ends before its line
}

// eqnClass classifies input bytes for the lexer.
var eqnClass = func() (c [256]byte) {
	for _, b := range []byte(" \t\r") {
		c[b] = ' '
	}
	for _, b := range []byte("=;()!*+^") {
		c[b] = '='
	}
	for _, b := range []byte("_[].abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789") {
		c[b] = 'i'
	}
	return c
}()

// fill lexes lines until an unread token is available. It reports false at
// the end of the input and from the line of the first lexing error on.
func (lx *eqnLexer) fill() bool {
	for lx.pos >= len(lx.toks) {
		if lx.err != nil || !lx.lexLine() {
			return false
		}
	}
	return lx.err == nil
}

// lexLine replaces lx.toks with the tokens of the next line, reporting
// false at the end of the input. A byte outside the format separates the
// tokens around it, and the first one sets lx.err.
func (lx *eqnLexer) lexLine() bool {
	if lx.off == len(lx.src) {
		return false
	}
	line := lx.src[lx.off:]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
		lx.off += i + 1
	} else {
		lx.off = len(lx.src)
	}
	lx.lineNo++
	lx.toks, lx.pos = lx.toks[:0], 0
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	for i := 0; i < len(line); {
		c := line[i]
		switch eqnClass[c] {
		case ' ':
			i++
		case '=':
			lx.toks = append(lx.toks, eqnToken{kind: c, line: lx.lineNo})
			i++
		case 'i':
			j := i + 1
			for j < len(line) && eqnClass[line[j]] == 'i' {
				j++
			}
			word := line[i:j]
			switch word {
			case "0":
				lx.toks = append(lx.toks, eqnToken{kind: '0', line: lx.lineNo})
			case "1":
				lx.toks = append(lx.toks, eqnToken{kind: '1', line: lx.lineNo})
			default:
				lx.toks = append(lx.toks, eqnToken{kind: 'i', text: word, line: lx.lineNo})
			}
			i = j
		default:
			if lx.err == nil {
				lx.err = fmt.Errorf("eqn: line %d: unexpected character %q", lx.lineNo, c)
			}
			i++
		}
	}
	return true
}

func (lx *eqnLexer) peek() (eqnToken, bool) {
	if !lx.fill() {
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

// A Statement is one statement of a netlist text at the level of signal
// names, as the format's reader tokenizes it. Kind 'i' declares input Name
// and 'o' declares output Name; Kind '=' defines Name from the signals in
// Deps, constants left out. Line is the line Name stands on; an EQN
// definition reports the line its statement starts on, and a BLIF
// statement the line its (possibly continued) directive ends on.
type Statement struct {
	Kind byte
	Name string
	Deps []string
	Line int
}

// WalkEQN calls visit for every statement of an equation-format text, in
// order, as ReadEQN's lexer tokenizes it. It never fails, so it can
// describe a text ReadEQN rejects: a byte outside the format separates
// tokens, operators and parentheses are skipped, and a statement without
// '=' after its first token defines nothing. visit may keep its argument.
func WalkEQN(src string, visit func(Statement)) {
	lx := &eqnLexer{src: src}
	var (
		head   eqnToken // the statement's first token, when kind != 0
		seenEq bool
		ids    []eqnToken // the names after its '='
	)
	end := func() {
		switch {
		case head.kind == 'i' && (head.text == "INORDER" || head.text == "OUTORDER"):
			kind := byte('i')
			if head.text == "OUTORDER" {
				kind = 'o'
			}
			for _, t := range ids {
				visit(Statement{Kind: kind, Name: t.text, Line: t.line})
			}
		case head.kind != 0 && seenEq:
			deps := make([]string, len(ids))
			for i, t := range ids {
				deps[i] = t.text
			}
			visit(Statement{Kind: '=', Name: tokenDesc(head), Deps: deps, Line: head.line})
		}
		head, seenEq, ids = eqnToken{}, false, ids[:0]
	}
	for lx.lexLine() {
		for _, t := range lx.toks {
			switch {
			case t.kind == ';':
				end()
			case head.kind == 0:
				if t.kind == 'i' || t.kind == '0' || t.kind == '1' || t.kind == '=' {
					head = t
				}
			case t.kind == '=':
				seenEq = true
			case t.kind == 'i' && seenEq:
				ids = append(ids, t)
			}
		}
	}
	end()
}

type eqnParser struct {
	lx *eqnLexer
	n  *Netlist
	// stmts is the input's statement count, by which the netlist is
	// presized at the first assignment, once the inputs are in.
	stmts int
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
// failures, and read errors, are wrapped in ErrParse. It reads the whole
// input first, into one string that the netlist's signal names are
// substrings of, and sizes the netlist from its statement count.
func ReadEQN(r io.Reader, name string) (*Netlist, error) {
	n, err := readEQN(r, name)
	if err != nil {
		return nil, parseError(err)
	}
	return n, nil
}

func readEQN(r io.Reader, name string) (*Netlist, error) {
	src, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("eqn: %w", err)
	}
	lx := &eqnLexer{src: src}
	n, err := (&eqnParser{lx: lx, n: New(name), stmts: strings.Count(src, ";")}).parse()
	if lx.err != nil {
		// The input ended at the error, so whatever the parser reported
		// after it is a consequence.
		return nil, lx.err
	}
	return n, err
}

// readInput reads r to its end into one string, in one allocation when r
// reports its size (files, and bytes and strings readers).
func readInput(r io.Reader) (string, error) {
	var b strings.Builder
	switch s := r.(type) {
	case interface{ Len() int }:
		b.Grow(s.Len())
	case *os.File:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()))
		}
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}

// parse reads the statements up to the end of the input.
func (p *eqnParser) parse() (*Netlist, error) {
	lx := p.lx
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
			if p.stmts > 0 {
				p.n.reserve(p.stmts)
				p.stmts = 0
			}
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
			if p.n.names[id] != "" || p.n.gates[id].typ == Input {
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
func (n *Netlist) WriteEQN(w io.Writer) error { return n.writeEQN(w, nil) }

// writeEQN is WriteEQN, calling visit (when not nil) on every gate, in ID
// order, as the walk over the gates passes it.
func (n *Netlist) writeEQN(w io.Writer, visit func(id int, typ GateType, fanin []int)) error {
	bw := bufio.NewWriter(w)
	// Lines are appended into one reused chunk, each gate's name rendered
	// into its word once, as the walk reaches the gate (a gate is referenced
	// about three times, always after its own line): this loop is the
	// whole cost of content hashing (Digest), which preflight pays per job.
	names := newEqnNames(len(n.gates))
	chunk := make([]byte, 0, eqnChunk+eqnSlack)
	flush := func() {
		if len(chunk) >= eqnChunk {
			bw.Write(chunk)
			chunk = chunk[:0]
		}
	}
	chunk = append(append(append(chunk, "# "...), n.Name...), "\nINORDER ="...)
	for _, id := range n.inputs {
		chunk = append(append(chunk, ' '), n.NameOf(id)...)
		flush()
	}
	chunk = append(chunk, ";\nOUTORDER ="...)
	for _, name := range n.outputNames {
		chunk = append(append(chunk, ' '), name...)
		flush()
	}
	chunk = append(chunk, ";\n"...)

	// Output ports that alias an internal signal of a different name (or an
	// input) need explicit buffer assignments.
	var aliased map[string]int
	for i, id := range n.outputs {
		if n.NameOf(id) != n.outputNames[i] {
			if aliased == nil {
				aliased = map[string]int{}
			}
			aliased[n.outputNames[i]] = id
		}
	}

	for id := range n.gates {
		names.name(n, id)
		typ, fanin := n.Cell(id)
		if visit != nil {
			visit(id, typ, fanin)
		}
		if typ == Input {
			continue
		}
		chunk = names.appendLine(chunk, n, id, typ, fanin)
		flush()
	}
	// Deterministic order for alias buffers.
	aliases := make([]string, 0, len(aliased))
	for name := range aliased {
		aliases = append(aliases, name)
	}
	sort.Strings(aliases)
	for _, name := range aliases {
		chunk = append(append(append(append(chunk, name...), " = "...), n.NameOf(aliased[name])...), ";\n"...)
		flush()
	}
	bw.Write(chunk)
	return bw.Flush()
}

// eqnChunk is the size at which WriteEQN hands its rendered lines on;
// eqnSlack keeps room past it for a line or two.
const (
	eqnChunk = 1 << 15
	eqnSlack = 256
)

// eqnNames holds every gate's NameOf in a word of its own: a name of up to
// eight bytes, in order from the low byte and zero-padded, so fetching any
// name touches one word and its length is where the zero padding starts
// (names hold no zero bytes). A longer name leaves its word 0 and is kept
// in long. The words are filled in ID order, one name call per gate.
type eqnNames struct {
	words []uint64
	long  map[int]string
	// syn is the synthesized name "n<id>" of the next gate, counted up in
	// decimal once per gate (synLen bytes): cheaper than formatting every
	// one from scratch.
	syn    [8]byte
	synLen int
}

func newEqnNames(gates int) *eqnNames {
	return &eqnNames{words: make([]uint64, gates), syn: [8]byte{'n', '0'}, synLen: 2}
}

// name fills in the word of gate id, the next one in ID order.
func (e *eqnNames) name(n *Netlist, id int) {
	switch s := n.names[id]; {
	case s == "" && !n.isShadowed(id) && e.synLen <= 8:
		e.words[id] = binary.LittleEndian.Uint64(e.syn[:])
	default:
		if s == "" {
			s = n.NameOf(id)
		}
		if len(s) <= 8 && strings.IndexByte(s, 0) < 0 {
			var w [8]byte
			copy(w[:], s)
			e.words[id] = binary.LittleEndian.Uint64(w[:])
		} else {
			if e.long == nil {
				e.long = map[int]string{}
			}
			e.long[id] = s
		}
	}
	incName(&e.syn, &e.synLen)
}

// incName adds one to the number in the synthesized name syn of length
// *l. A name that has outgrown the word reads length 9, which name does
// not use.
func incName(syn *[8]byte, l *int) {
	if *l > 8 {
		return
	}
	for i := *l - 1; i >= 1; i-- {
		if syn[i] < '9' {
			syn[i]++
			return
		}
		syn[i] = '0'
	}
	*l++
	if *l <= 8 {
		syn[1] = '1'
		syn[*l-1] = '0'
	}
}

// wordLen returns the length of the name in word w (not 0).
func wordLen(w uint64) int { return 8 - bits.LeadingZeros64(w)/8 }

// append appends gate id's name to b.
func (e *eqnNames) append(b []byte, id int) []byte {
	if w := e.words[id]; w != 0 {
		return binary.LittleEndian.AppendUint64(b, w)[:len(b)+wordLen(w)]
	}
	return append(b, e.long[id]...)
}

// binops holds the operator text of the plain two-input cells, padded to
// four bytes.
var binops = [...]uint32{
	And: ' ' | '*'<<8 | ' '<<16,
	Or:  ' ' | '+'<<8 | ' '<<16,
	Xor: ' ' | '^'<<8 | ' '<<16,
}

// appendLine appends gate id's assignment line, "name = expr;\n". The
// plain two-input cells that make up nearly every multiplier, when all
// three names fit their words, are written with word-wide stores into room
// reserved up front; every other line goes through appendGateExpr.
func (e *eqnNames) appendLine(b []byte, n *Netlist, id int, typ GateType, fanin []int) []byte {
	if (typ == And || typ == Or || typ == Xor) && len(fanin) == 2 {
		w, x, y := e.words[id], e.words[fanin[0]], e.words[fanin[1]]
		if w != 0 && x != 0 && y != 0 {
			// Each name is stored as a whole word and the next text
			// written over its padding: 8+3+8+3+8+2 bytes at most.
			if cap(b)-len(b) < 32 {
				b = slices.Grow(b, 32)
			}
			buf := b[:cap(b)]
			i := len(b)
			binary.LittleEndian.PutUint64(buf[i:], w)
			i += wordLen(w)
			binary.LittleEndian.PutUint32(buf[i:], ' '|'='<<8|' '<<16)
			binary.LittleEndian.PutUint64(buf[i+3:], x)
			i += 3 + wordLen(x)
			binary.LittleEndian.PutUint32(buf[i:], binops[typ])
			binary.LittleEndian.PutUint64(buf[i+3:], y)
			i += 3 + wordLen(y)
			binary.LittleEndian.PutUint16(buf[i:], ';'|'\n'<<8)
			return b[:i+2]
		}
	}
	b = e.append(b, id)
	b = append(b, " = "...)
	b = e.appendGateExpr(b, n.Gate(id))
	return append(b, ";\n"...)
}

// appendGateExpr appends the RHS expression of a gate in equation syntax.
func (e *eqnNames) appendGateExpr(b []byte, g Gate) []byte {
	// f appends fanin i's name after the literal text pre.
	f := func(b []byte, pre string, i int) []byte {
		return e.append(append(b, pre...), g.Fanin[i])
	}
	switch g.Type {
	case Const0:
		return append(b, '0')
	case Const1:
		return append(b, '1')
	case Buf:
		return f(b, "", 0)
	case Not:
		return f(b, "!", 0)
	case And:
		return f(f(b, "", 0), " * ", 1)
	case Or:
		return f(f(b, "", 0), " + ", 1)
	case Xor:
		return f(f(b, "", 0), " ^ ", 1)
	case Xnor:
		return append(f(f(b, "!(", 0), " ^ ", 1), ')')
	case Nand:
		return append(f(f(b, "!(", 0), " * ", 1), ')')
	case Nor:
		return append(f(f(b, "!(", 0), " + ", 1), ')')
	case Aoi21:
		return append(f(f(f(b, "!(", 0), " * ", 1), " + ", 2), ')')
	case Oai21:
		return append(f(f(f(b, "!((", 0), " + ", 1), ") * ", 2), ')')
	case Aoi22:
		return append(f(f(f(f(b, "!(", 0), " * ", 1), " + ", 2), " * ", 3), ')')
	case Oai22:
		return append(f(f(f(f(b, "!((", 0), " + ", 1), ") * (", 2), " + ", 3), "))"...)
	case Mux:
		return f(f(f(f(b, "!", 2), " * ", 0), " + ", 2), " * ", 1)
	case Lut:
		return e.appendLutExpr(b, g)
	}
	panic(fmt.Sprintf("netlist: appendGateExpr on %v", g.Type))
}

// appendLutExpr expands a truth-table gate as a sum of minterms.
func (e *eqnNames) appendLutExpr(b []byte, g Gate) []byte {
	start := len(b)
	for row, bit := range g.Table {
		if !bit {
			continue
		}
		if len(b) > start {
			b = append(b, " + "...)
		}
		for i, f := range g.Fanin {
			if i > 0 {
				b = append(b, " * "...)
			}
			if row&(1<<uint(i)) == 0 {
				b = append(b, '!')
			}
			b = e.append(b, f)
		}
	}
	if len(b) == start {
		return append(b, '0')
	}
	return b
}
