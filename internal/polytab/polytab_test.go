package polytab

import (
	"fmt"
	"testing"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

// nistSizes lists the bit widths of the NIST table in ascending order.
var nistSizes = []int{64, 96, 163, 233, 283, 409, 571}

func TestNISTTableIrreducible(t *testing.T) {
	for _, m := range nistSizes {
		p, ok := NIST[m]
		if !ok {
			t.Fatalf("NIST table missing m=%d", m)
		}
		if p.Deg() != m {
			t.Errorf("NIST[%d] has degree %d", m, p.Deg())
		}
		if !p.Irreducible() {
			t.Errorf("NIST[%d] = %v is not irreducible", m, p)
		}
		w := p.Weight()
		if w != 3 && w != 5 {
			t.Errorf("NIST[%d] weight %d; want trinomial or pentanomial", m, w)
		}
	}
}

func TestArch233Irreducible(t *testing.T) {
	if len(Arch233) != 4 {
		t.Fatalf("Arch233 has %d entries, want 4", len(Arch233))
	}
	for _, ap := range Arch233 {
		if ap.P.Deg() != 233 {
			t.Errorf("%s polynomial degree %d", ap.Arch, ap.P.Deg())
		}
		if !ap.P.Irreducible() {
			t.Errorf("%s polynomial %v is not irreducible", ap.Arch, ap.P)
		}
	}
	// The paper notes trinomials (ARM, NIST) vs pentanomials (Pentium,
	// MSP430): weight distribution must match.
	weights := map[string]int{"Intel-Pentium": 5, "ARM": 3, "MSP430": 5, "NIST-recommended": 3}
	for _, ap := range Arch233 {
		if ap.P.Weight() != weights[ap.Arch] {
			t.Errorf("%s weight = %d, want %d", ap.Arch, ap.P.Weight(), weights[ap.Arch])
		}
	}
}

func TestTrinomialSearch(t *testing.T) {
	// Known smallest irreducible trinomials: x^2+x+1, x^3+x+1, x^4+x+1,
	// x^7+x+1, x^15+x+1, x^17+x^3+1, x^233+x^74+1.
	cases := map[int]string{
		2:   "x^2+x+1",
		3:   "x^3+x+1",
		4:   "x^4+x+1",
		7:   "x^7+x+1",
		15:  "x^15+x+1",
		17:  "x^17+x^3+1",
		233: "x^233+x^74+1",
	}
	for m, want := range cases {
		p, ok := Trinomial(m)
		if !ok {
			t.Fatalf("Trinomial(%d) not found", m)
		}
		if p.String() != want {
			t.Errorf("Trinomial(%d) = %v, want %s", m, p, want)
		}
	}
}

func TestTrinomialNonexistent(t *testing.T) {
	// No irreducible trinomial exists when m is a multiple of 8 (the
	// motivation for pentanomials in the NIST list, per Section II-D).
	for _, m := range []int{8, 16, 24, 32, 64} {
		if p, ok := Trinomial(m); ok {
			t.Errorf("Trinomial(%d) = %v; none should exist", m, p)
		}
	}
	if _, ok := Trinomial(1); ok {
		t.Error("Trinomial(1) should not exist")
	}
}

func TestPentanomialSearch(t *testing.T) {
	for _, m := range []int{8, 16, 32, 64, 128} {
		p, ok := Pentanomial(m)
		if !ok {
			t.Fatalf("Pentanomial(%d) not found", m)
		}
		if p.Deg() != m || p.Weight() != 5 {
			t.Errorf("Pentanomial(%d) = %v (deg %d, weight %d)", m, p, p.Deg(), p.Weight())
		}
		if !p.Irreducible() {
			t.Errorf("Pentanomial(%d) = %v not irreducible", m, p)
		}
	}
	if _, ok := Pentanomial(3); ok {
		t.Error("Pentanomial(3) should not exist")
	}
}

func TestPentanomialAES(t *testing.T) {
	// The AES field polynomial x^8+x^4+x^3+x+1 is the lexicographically
	// first irreducible pentanomial of degree 8 under our scan order.
	p, ok := Pentanomial(8)
	if !ok || p.String() != "x^8+x^4+x^3+x+1" {
		t.Errorf("Pentanomial(8) = %v, want AES polynomial", p)
	}
}

func TestDefaultPolicy(t *testing.T) {
	// NIST sizes come from the table even when a smaller trinomial exists.
	p, err := Default(233)
	if err != nil || !p.Equal(NIST[233]) {
		t.Errorf("Default(233) = %v, %v", p, err)
	}
	// Non-NIST size with a trinomial.
	p, err = Default(7)
	if err != nil || p.String() != "x^7+x+1" {
		t.Errorf("Default(7) = %v, %v", p, err)
	}
	// Non-NIST size requiring a pentanomial.
	p, err = Default(8)
	if err != nil || p.Weight() != 5 {
		t.Errorf("Default(8) = %v, %v", p, err)
	}
	if _, err = Default(1); err == nil {
		t.Error("Default(1) should fail")
	}
	// Every Default result must be irreducible of the right degree.
	for m := 2; m <= 64; m++ {
		p, err := Default(m)
		if err != nil {
			t.Fatalf("Default(%d): %v", m, err)
		}
		if p.Deg() != m || !p.Irreducible() {
			t.Errorf("Default(%d) = %v", m, p)
		}
	}
}

func TestReductionRowsFigure1(t *testing.T) {
	// Figure 1, P2 = x^4+x+1: s4 folds into z0, z1; s5 into z1, z2;
	// s6 into z2, z3.
	rows := ReductionRows(gf2poly.MustParse("x^4+x+1"))
	want := []string{"x+1", "x^2+x", "x^3+x^2"}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Errorf("P2 row s%d = %v, want %s", i+4, r, want[i])
		}
	}
	// Figure 1, P1 = x^4+x^3+1: s4 -> z3,z0; s5 -> z3,z1,z0; s6 -> z3,z2,z1,z0.
	rows = ReductionRows(gf2poly.MustParse("x^4+x^3+1"))
	want = []string{"x^3+1", "x^3+x+1", "x^3+x^2+x+1"}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Errorf("P1 row s%d = %v, want %s", i+4, r, want[i])
		}
	}
}

func TestSectionIIDXORCounts(t *testing.T) {
	// Section II-D: "the number of XORs using P1(x) is 3+1+2+3=9; and using
	// P2(x), the number of XORs is 1+2+2+1=6."
	if got := ReductionXORCount(gf2poly.MustParse("x^4+x^3+1")); got != 9 {
		t.Errorf("XOR count for x^4+x^3+1 = %d, want 9", got)
	}
	if got := ReductionXORCount(gf2poly.MustParse("x^4+x+1")); got != 6 {
		t.Errorf("XOR count for x^4+x+1 = %d, want 6", got)
	}
}

func TestReductionXORCountOrdersTableIV(t *testing.T) {
	// Trinomials must cost less than pentanomials at the same m; this is
	// the structural reason behind the Table IV runtime spread.
	cost := map[string]int{}
	for _, ap := range Arch233 {
		cost[ap.Arch] = ReductionXORCount(ap.P)
	}
	if !(cost["ARM"] < cost["Intel-Pentium"] && cost["ARM"] < cost["MSP430"]) {
		t.Errorf("ARM trinomial should be cheapest: %v", cost)
	}
	if !(cost["NIST-recommended"] < cost["Intel-Pentium"] && cost["NIST-recommended"] < cost["MSP430"]) {
		t.Errorf("NIST trinomial should beat pentanomials: %v", cost)
	}
}

func TestReductionRowsMatchExpMod(t *testing.T) {
	for _, m := range []int{5, 8, 16, 33} {
		p, err := Default(m)
		if err != nil {
			t.Fatal(err)
		}
		rows := ReductionRows(p)
		if len(rows) != m-1 {
			t.Fatalf("m=%d: %d rows", m, len(rows))
		}
		for k, row := range rows {
			want := gf2poly.Monomial(m + k).Mod(p)
			if !row.Equal(want) {
				t.Errorf("m=%d: row for x^%d = %v, want %v", m, m+k, row, want)
			}
		}
	}
}

func TestCountIrreducibleSmallExhaustive(t *testing.T) {
	// Compare the necklace formula against brute-force enumeration with the
	// Rabin test for degrees 1..12.
	for m := 1; m <= 12; m++ {
		want := uint64(0)
		for v := uint64(1) << uint(m); v < 1<<uint(m+1); v++ {
			if gf2poly.FromUint64(v).Irreducible() {
				want++
			}
		}
		got, err := CountIrreducible(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("m=%d: formula says %d, enumeration finds %d", m, got, want)
		}
	}
}

func TestCountIrreducibleKnownValues(t *testing.T) {
	// OEIS A001037: 2, 1, 2, 3, 6, 9, 18, 30, 56, 99 for m = 1..10.
	want := []uint64{2, 1, 2, 3, 6, 9, 18, 30, 56, 99}
	for i, w := range want {
		got, err := CountIrreducible(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("m=%d: %d, want %d", i+1, got, w)
		}
	}
	if _, err := CountIrreducible(0); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := CountIrreducible(63); err == nil {
		t.Error("m=63 should fail")
	}
}

// TestNISTTableBerlekampCrossCheck re-validates every standardized
// polynomial with the independent Berlekamp nullity test: the two
// irreducibility algorithms share no code path, so agreement on the full
// table (up to degree 571) is a strong differential check. A one-bit
// corruption of each polynomial must also be flagged by both.
func TestNISTTableBerlekampCrossCheck(t *testing.T) {
	check := func(name string, p gf2poly.Poly) {
		if !p.IrreducibleBerlekamp() {
			t.Errorf("%s = %v: Berlekamp disagrees with Rabin on irreducibility", name, p)
		}
		// Corrupt the lowest interior term; the damaged polynomial must not
		// pass either test pretending to be the standardized one.
		terms := p.Terms()
		if len(terms) < 3 {
			t.Fatalf("%s = %v: not a standards-shaped polynomial", name, p)
		}
		bad := p.Add(gf2poly.Monomial(terms[1] + 1))
		if bad.Irreducible() != bad.IrreducibleBerlekamp() {
			t.Errorf("%s: algorithms disagree on corrupted %v", name, bad)
		}
	}
	for _, m := range nistSizes {
		check(fmt.Sprintf("NIST[%d]", m), NIST[m])
	}
	for _, ap := range Arch233 {
		check("Arch233/"+ap.Arch, ap.P)
	}
}
