package anf_test

import (
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	ref "github.com/galoisfield/gfre/internal/anf/reference"
)

// FuzzANFPacked interprets the input as an operation program executed
// against both the packed core and the string-keyed reference core, and
// fails on any observable divergence. Opcodes consume two bytes: the low
// three bits of the first select the operation, the second parameterizes it
// (monomial masks over variables 1..8, substitution targets, evaluation
// assignments). For substitution, bit 3 of the first byte selects the
// term-list entry (SubstituteTerms) and bits 4-6 add terms to its
// expression: a duplicate of the full term, the constant 1 and the lowest
// variable alone. Committed corpus seeds live in testdata/fuzz/FuzzANFPacked;
// CI runs this target in the fuzz-smoke job.
func FuzzANFPacked(f *testing.F) {
	f.Add([]byte{0x00, 0x07, 0x00, 0x15, 0x01, 0x33, 0x05, 0xff})
	f.Add([]byte{0x03, 0x81, 0x03, 0x42, 0x02, 0x18, 0x04, 0x3c, 0x05, 0x00})
	f.Add([]byte{0x00, 0xaa, 0x01, 0x55, 0x02, 0x0f, 0x03, 0xf0, 0x06, 0x11, 0x05, 0x99})
	f.Add([]byte{0x00, 0xff, 0x0c, 0x1a, 0x3c, 0x2b, 0x7c, 0x3c, 0x5c, 0x09, 0x05, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		pr := newPair()
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]&7, data[i+1]
			switch op {
			case 0, 1: // toggle a monomial (two opcodes: toggles dominate)
				pr.toggle(uint16(arg))
			case 2: // XOR-merge a small polynomial derived from arg
				o := newPair()
				o.toggle(uint16(arg))
				o.toggle(uint16(arg >> 1))
				o.toggle(uint16(arg) << 1 & 0xff)
				pr.add(o)
			case 3: // multiply by a small polynomial, bounded to stay cheap
				if pr.p.Len() <= 16 {
					o := newPair()
					o.toggle(uint16(arg & 0x0f))
					o.toggle(uint16(arg >> 4))
					pr = pr.mul(o)
				}
			case 4: // substitute v := e when acyclic
				v := int(arg&7) + 1
				if data[i]&8 != 0 {
					e := fuzzTerms(data[i], arg>>3)
					if !slices.Contains(e.Vars, anf.Var(v)) {
						pr.substituteTerms(v, e)
					}
					break
				}
				e := newPair()
				e.toggle(uint16(arg >> 3))
				pe, qe := e.p.ContainsVar(anf.Var(v)), e.q.ContainsVar(ref.Var(v))
				if pe != qe {
					t.Fatalf("op %d: ContainsVar(v%d) packed=%v reference=%v", i, v, pe, qe)
				}
				if !pe {
					pr.substitute(v, e)
				}
			case 5: // evaluate under the assignment arg
				mustEvalMatch(t, "fuzz-eval", pr, uint32(arg)<<1)
			case 6: // clone isolation
				cl := pr.clone()
				cl.toggle(uint16(arg))
				mustMatch(t, "fuzz-clone", cl)
			case 7: // self-add: p + p = 0 in both cores
				cl := pr.clone()
				cl.p.AddInPlace(cl.p)
				cl.q.AddInPlace(cl.q)
				if !cl.p.IsZero() || !cl.q.IsZero() {
					t.Fatalf("op %d: p+p not zero (packed=%v reference=%v)", i, cl.p, cl.q)
				}
			}
			mustMatch(t, "fuzz-step", pr)
		}
	})
}

// fuzzTerms builds the term-list expression of a substitution opcode: the
// product of the variables in mask (over variables 1..5), plus the extra
// terms selected by bits 4-6 of op.
func fuzzTerms(op, mask byte) *anf.Terms {
	e := &anf.Terms{}
	for i := 0; i < 5; i++ {
		if mask&(1<<i) != 0 {
			e.Vars = append(e.Vars, anf.Var(i+1))
		}
	}
	full := uint32(1)<<len(e.Vars) - 1
	e.Masks = append(e.Masks, full)
	if op&0x10 != 0 {
		e.Masks = append(e.Masks, full) // cancels the full term
	}
	if op&0x20 != 0 {
		e.Masks = append(e.Masks, 0)
	}
	if op&0x40 != 0 && len(e.Vars) > 0 {
		e.Masks = append(e.Masks, 1)
	}
	return e
}
