package netlist

// IndexedNames returns how many names n's hash index holds: the names
// that are not their gates' own "n<k>", and the aliases of renamed gates.
func IndexedNames(n *Netlist) int { return n.index.used }
