package netlist

import (
	"fmt"
	"slices"
)

// An elaborator builds the netlist of a BLIF or Verilog text, whose
// statements may come in any order, one statement as its reader reads it.
// A statement whose signals are all defined is built at once; one that
// reads a signal not defined yet is parked under that signal until it is.
// A text in topological order is thus numbered in file order and parks
// nothing. Whatever is still parked at the end of the text has no driver
// or lies on a combinational cycle.
type elaborator struct {
	n    *Netlist
	lang string // the format, which prefixes error messages
	// outputs are the declared output names, marked at the end.
	outputs []string
	// parked holds the parked statements by the signal each waits for,
	// and drives by the signal each defines.
	parked map[string][]*stmt
	drives map[string]*stmt
	// reserve is the input's count of gate statements, by which the
	// netlist is presized at the first statement, once the inputs are in.
	reserve int
	stmts   int     // statements added, for the file order of parked ones
	fanin   []int   // the IDs of the statement resolve looked up last
	queue   []*stmt // statements woken and not yet resolved again
}

// A stmt is one statement of a BLIF or Verilog text: it defines signal out
// from the signals in ins. It is a .names block when table is set, an
// assign when toks is, and otherwise a gate primitive.
type stmt struct {
	out   string
	line  int
	ins   []string
	table []bool     // a .names block's truth table, over ins
	toks  []eqnToken // an assign's right-hand side, through its ';'
	prim  GateType   // a gate primitive's type, ins its inputs
	seq   int        // the statement's place in the text
	wait  string     // the signal a parked statement waits for
}

// input adds a primary input and builds what was parked under it. An
// input that a statement read before drives is an error.
func (e *elaborator) input(name string) error {
	if s := e.drives[name]; s != nil {
		return fmt.Errorf("%s: line %d: primary input %q is driven", e.lang, s.line, name)
	}
	if id, ok := e.n.Lookup(name); ok && e.n.gates[id].typ != Input {
		return fmt.Errorf("%s: primary input %q is driven", e.lang, name)
	}
	if _, err := e.n.AddInput(name); err != nil {
		return err
	}
	return e.wake(name)
}

// add builds statement s, or parks a copy of it. A statement that drives
// a primary input or a signal that another one drives is an error, which
// naming the signal's gate reports when the statement is built.
func (e *elaborator) add(s stmt) error {
	if e.drives[s.out] != nil {
		return fmt.Errorf("%s: line %d: signal %q driven twice", e.lang, s.line, s.out)
	}
	if e.stmts == 0 {
		e.n.reserve(e.reserve)
	}
	s.seq = e.stmts
	e.stmts++
	if missing, ok := e.resolve(&s); !ok {
		// Only a parked statement is kept: a copy, off the reader's buffers.
		p := s
		p.ins, p.table, p.toks = slices.Clone(s.ins), slices.Clone(s.table), slices.Clone(s.toks)
		if e.parked == nil {
			e.parked, e.drives = map[string][]*stmt{}, map[string]*stmt{}
		}
		e.drives[p.out] = &p
		e.park(&p, missing)
		return nil
	}
	if err := e.build(&s); err != nil {
		return err
	}
	return e.wake(s.out)
}

// resolve looks up the signals s reads into e.fanin. It reports the first
// one not defined yet, if any.
func (e *elaborator) resolve(s *stmt) (missing string, ok bool) {
	e.fanin = e.fanin[:0]
	for _, name := range s.ins {
		id, ok := e.n.Lookup(name)
		if !ok {
			return name, false
		}
		e.fanin = append(e.fanin, id)
	}
	return "", true
}

func (e *elaborator) park(s *stmt, missing string) {
	s.wait = missing
	e.parked[missing] = append(e.parked[missing], s)
}

// wake builds the statements parked under signal name, defined just now,
// and in turn those parked under the signals they define.
func (e *elaborator) wake(name string) error {
	if len(e.parked) == 0 {
		return nil
	}
	q := append(e.queue[:0], e.parked[name]...)
	delete(e.parked, name)
	for len(q) > 0 {
		s := q[len(q)-1]
		q = q[:len(q)-1]
		if missing, ok := e.resolve(s); !ok {
			e.park(s, missing)
			continue
		}
		delete(e.drives, s.out)
		if err := e.build(s); err != nil {
			return err
		}
		q = append(q, e.parked[s.out]...)
		delete(e.parked, s.out)
	}
	e.queue = q
	return nil
}

// build adds the gates of statement s, whose signals resolve has just
// looked up, and names its last gate s.out.
func (e *elaborator) build(s *stmt) error {
	var id int
	var err error
	switch {
	case s.toks != nil:
		p := eqnParser{lx: &eqnLexer{toks: s.toks, verilog: true}, n: e.n}
		if id, err = p.parseOr(); err != nil {
			return err
		}
		if _, err := p.lx.expect(';'); err != nil {
			return err
		}
	case s.table != nil && len(e.fanin) == 0:
		typ := Const0
		if s.table[0] {
			typ = Const1
		}
		id, err = e.n.AddGate(typ)
	case s.table != nil:
		id, err = e.n.AddLut(s.table, e.fanin...)
	default:
		id, err = e.n.addPrim(s.prim, e.fanin)
	}
	if err == nil {
		err = e.n.bindName(id, s.out)
	}
	if err != nil {
		if id, ok := e.n.Lookup(s.out); ok && e.n.gates[id].typ == Input {
			return fmt.Errorf("%s: line %d: primary input %q is driven", e.lang, s.line, s.out)
		}
		return fmt.Errorf("%s: line %d: %w", e.lang, s.line, err)
	}
	return nil
}

// bindName names gate id, or a buffer of it when the gate is named already,
// as an input or a signal that an expression reduced to, so that every
// name binds to a gate of its own.
func (n *Netlist) bindName(id int, name string) error {
	if n.names[id] != "" || n.gates[id].typ == Input {
		var err error
		if id, err = n.AddGate(Buf, id); err != nil {
			return err
		}
	}
	return n.SetSignalName(id, name)
}

// addPrim adds a Verilog gate primitive. A binary one with more inputs
// becomes a chain, inverted at its end for nand, nor and xnor, as Verilog's
// reduction semantics have it.
func (n *Netlist) addPrim(typ GateType, fanin []int) (int, error) {
	if len(fanin) == typ.Arity() {
		return n.AddGate(typ, fanin...)
	}
	base, invert := typ, false
	switch typ {
	case Nand:
		base, invert = And, true
	case Nor:
		base, invert = Or, true
	case Xnor:
		base, invert = Xor, true
	case And, Or, Xor:
	default:
		return 0, fmt.Errorf("%v cannot take %d inputs", typ, len(fanin))
	}
	id := fanin[0]
	var err error
	for _, f := range fanin[1:] {
		if id, err = n.AddGate(base, id, f); err != nil {
			return 0, err
		}
	}
	if invert {
		return n.AddGate(Not, id)
	}
	return id, nil
}

// finish reports the first statement still parked, in file order, as
// reading a signal without a driver or as lying on a cycle, and marks the
// declared outputs.
func (e *elaborator) finish() error {
	var s *stmt
	for _, d := range e.drives {
		if s == nil || d.seq < s.seq {
			s = d
		}
	}
	for seen := map[*stmt]bool{}; s != nil; {
		seen[s] = true
		d := e.drives[s.wait]
		switch {
		case d == nil:
			return fmt.Errorf("%s: line %d: signal %q has no driver", e.lang, s.line, s.wait)
		case seen[d]:
			return fmt.Errorf("%s: combinational cycle through %q", e.lang, s.wait)
		}
		s = d
	}
	for _, name := range e.outputs {
		id, ok := e.n.Lookup(name)
		if !ok {
			return fmt.Errorf("%s: output %q has no driver", e.lang, name)
		}
		if err := e.n.MarkOutput(name, id); err != nil {
			return err
		}
	}
	return nil
}
