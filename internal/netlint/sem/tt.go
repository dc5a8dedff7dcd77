package sem

// Exact truth-table sub-domain: any wire whose cone reaches at most six
// distinct primary inputs is represented by a 64-bit truth table over those
// inputs. Within this domain everything is decidable — constants, exact ANF
// degree, exact support, unateness — which is what lets dead-by-algebra
// prove results syntactic constant folding cannot (x XOR x through distinct
// reconvergent paths, MUX branches that agree, comparator trees that
// collapse). Row index bit i is the value of variable i.

// lowMask[i] selects the truth-table rows where variable i is 0.
var lowMask = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// rowMask masks the valid rows of a k-variable table.
func rowMask(k int) uint64 {
	if k >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (uint(1) << uint(k))) - 1
}

// mobius converts a truth table to its ANF spectrum in place: bit m of the
// result is the coefficient of the monomial whose variable set is m. The
// standard XOR butterfly, one pass per variable.
func mobius(tt uint64, k int) uint64 {
	for i := 0; i < k; i++ {
		tt ^= (tt & lowMask[i]) << (uint(1) << uint(i))
	}
	return tt
}

// essential reports whether variable i actually influences the function.
func essential(tt uint64, k, i int) bool {
	s := uint(1) << uint(i)
	return ((tt>>s)^tt)&lowMask[i]&rowMask(k) != 0
}

// unateIn reports whether the function is unate (monotone or anti-monotone)
// in variable i.
func unateIn(tt uint64, k, i int) bool {
	s := uint(1) << uint(i)
	rm := rowMask(k)
	c0 := tt & lowMask[i] & rm
	c1 := (tt >> s) & lowMask[i] & rm
	return c0&^c1 == 0 || c1&^c0 == 0
}

// dropVar removes (inessential) variable i from a k-variable table by taking
// the x_i = 0 cofactor and compacting the remaining rows: the even block of
// every 2^i-row block pair moves down.
func dropVar(tt uint64, k, i int) uint64 {
	bs := uint(1) << uint(i)
	mask := uint64(1)<<bs - 1
	var out uint64
	sh := uint(0)
	for off := uint(0); off < uint(1)<<uint(k); off += 2 * bs {
		out |= ((tt >> off) & mask) << sh
		sh += bs
	}
	return out
}

// swapMask[i] serves swapping adjacent variables i and i+1: [0] selects the
// rows that stay, [1] the rows that move up by 2^i (variable i set, i+1
// clear); the rows moving down are [1] << 2^i.
var swapMask = [5][2]uint64{
	{0x9999999999999999, 0x2222222222222222},
	{0xc3c3c3c3c3c3c3c3, 0x0c0c0c0c0c0c0c0c},
	{0xf00ff00ff00ff00f, 0x00f000f000f000f0},
	{0xff0000ffff0000ff, 0x0000ff000000ff00},
	{0xffff00000000ffff, 0x00000000ffff0000},
}

// dupAt inserts an ignored variable at position p of a table over vars < 6
// variables: the table is duplicated into a new top variable, which then
// sinks to position p by adjacent swaps. The inverse of dropVar, used to
// lift a fanin table into a joint variable space.
func dupAt(tt uint64, vars, p int) uint64 {
	tt |= tt << (uint(1) << uint(vars))
	for i := vars - 1; i >= p; i-- {
		s := uint(1) << uint(i)
		tt = tt&swapMask[i][0] | (tt&swapMask[i][1])<<s | (tt>>s)&swapMask[i][1]
	}
	return tt
}

// ttConst classifies a k-variable table: (isConst, value).
func ttConst(tt uint64, k int) (bool, bool) {
	rm := rowMask(k)
	switch tt & rm {
	case 0:
		return true, false
	case rm:
		return true, true
	}
	return false, false
}
