package sem

import (
	"math/rand"
	"regexp"
	"testing"
)

// TestSplitPortNameMatchesPattern pins SplitPortName to the pattern it
// documents: on spelling variants and on random names over the characters
// that matter, it accepts exactly what the pattern matches and returns its
// two groups.
func TestSplitPortNameMatchesPattern(t *testing.T) {
	re := regexp.MustCompile(`^([A-Za-z_]+?)_?\[?(\d+)\]?$`)
	check := func(s string) {
		t.Helper()
		m := re.FindStringSubmatch(s)
		prefix, digits, ok := SplitPortName(s)
		if (m != nil) != ok || ok && (m[1] != prefix || m[2] != digits) {
			t.Fatalf("%q: pattern groups %q, SplitPortName %q %q %v", s, m, prefix, digits, ok)
		}
	}
	for _, s := range []string{
		"", "a", "3", "a3", "a_3", "a[3]", "a[3", "a3]", "_3", "__3", "a__3",
		"a_[3]", "_[3]", "[3]", "a[]3", "a]", "ab12", "a_1_2", "a[_3", "z10]", "x_",
	} {
		check(s)
	}
	alphabet := []byte("ab_[]019Z\xc3\xa9 ")
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		b := make([]byte, r.Intn(7))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		check(string(b))
	}
}
