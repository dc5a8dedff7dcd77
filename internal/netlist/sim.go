package netlist

import "fmt"

// Simulate runs 64-way bit-parallel simulation: each primary input carries
// 64 independent Boolean test vectors packed into a uint64, and the returned
// slice holds the 64 response bits of every gate. inputs must supply one
// word per primary input in port order.
//
// Simulation is the randomized cross-check used alongside the formal ANF
// comparison in package extract.
func (n *Netlist) Simulate(inputs []uint64) ([]uint64, error) {
	return n.SimulateXor(inputs, nil)
}

// SimulateXor is Simulate with fault injection: after a gate's word is
// computed, it is XORed with flips[id] before readers consume it. A lane
// with a set mask bit therefore sees the gate stuck at its complement — the
// primitive behind sensitization-based trojan localization (flip a suspect
// gate only on the test vectors where the output deviates and watch whether
// the deviation disappears). A nil map is a plain simulation.
func (n *Netlist) SimulateXor(inputs []uint64, flips map[int]uint64) ([]uint64, error) {
	if len(inputs) != len(n.inputs) {
		return nil, fmt.Errorf("netlist: %d input words for %d primary inputs", len(inputs), len(n.inputs))
	}
	vals := make([]uint64, len(n.gates))
	nextInput := 0
	for id := range n.gates {
		g := n.Gate(id)
		switch g.Type {
		case Input:
			vals[id] = inputs[nextInput]
			nextInput++
		case Const0:
			vals[id] = 0
		case Const1:
			vals[id] = ^uint64(0)
		case Buf:
			vals[id] = vals[g.Fanin[0]]
		case Not:
			vals[id] = ^vals[g.Fanin[0]]
		case And:
			vals[id] = vals[g.Fanin[0]] & vals[g.Fanin[1]]
		case Or:
			vals[id] = vals[g.Fanin[0]] | vals[g.Fanin[1]]
		case Xor:
			vals[id] = vals[g.Fanin[0]] ^ vals[g.Fanin[1]]
		case Xnor:
			vals[id] = ^(vals[g.Fanin[0]] ^ vals[g.Fanin[1]])
		case Nand:
			vals[id] = ^(vals[g.Fanin[0]] & vals[g.Fanin[1]])
		case Nor:
			vals[id] = ^(vals[g.Fanin[0]] | vals[g.Fanin[1]])
		case Aoi21:
			vals[id] = ^(vals[g.Fanin[0]]&vals[g.Fanin[1]] | vals[g.Fanin[2]])
		case Oai21:
			vals[id] = ^((vals[g.Fanin[0]] | vals[g.Fanin[1]]) & vals[g.Fanin[2]])
		case Aoi22:
			vals[id] = ^(vals[g.Fanin[0]]&vals[g.Fanin[1]] | vals[g.Fanin[2]]&vals[g.Fanin[3]])
		case Oai22:
			vals[id] = ^((vals[g.Fanin[0]] | vals[g.Fanin[1]]) & (vals[g.Fanin[2]] | vals[g.Fanin[3]]))
		case Mux:
			s := vals[g.Fanin[2]]
			vals[id] = vals[g.Fanin[0]]&^s | vals[g.Fanin[1]]&s
		case Lut:
			vals[id] = n.simLut(g, vals)
		default:
			return nil, fmt.Errorf("netlist: cannot simulate gate type %v", g.Type)
		}
		if flips != nil {
			if m, ok := flips[id]; ok {
				vals[id] ^= m
			}
		}
	}
	return vals, nil
}

// simLut evaluates a truth-table gate across 64 lanes by OR-ing, for every
// minterm row, the AND of (possibly complemented) fanin words.
func (n *Netlist) simLut(g Gate, vals []uint64) uint64 {
	var out uint64
	for row, bit := range g.Table {
		if !bit {
			continue
		}
		word := ^uint64(0)
		for i, f := range g.Fanin {
			if row&(1<<uint(i)) != 0 {
				word &= vals[f]
			} else {
				word &= ^vals[f]
			}
		}
		out |= word
	}
	return out
}

// OutputWords extracts the primary-output words from a Simulate result.
func (n *Netlist) OutputWords(vals []uint64) []uint64 {
	out := make([]uint64, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = vals[id]
	}
	return out
}

// FanoutCone returns root plus every gate in root's transitive fanout, in
// ascending ID order — the dual of Cone. A trojan at gate g can only disturb
// outputs inside FanoutCone(g), which is what localization accuracy is
// judged against.
func (n *Netlist) FanoutCone(root int) []int {
	mark := make([]bool, len(n.gates))
	mark[root] = true
	out := []int{root}
	for id := root + 1; id < len(n.gates); id++ {
		for _, f := range n.fanin(id) {
			if mark[f] {
				mark[id] = true
				out = append(out, id)
				break
			}
		}
	}
	return out
}
