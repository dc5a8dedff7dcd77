package netlint

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/netlist"
)

// sourceNames is the name pool of the random texts: plain names, names a
// gate would be given ("n3"), bracketed and dotted ones, and a keyword.
var sourceNames = []string{"a", "b", "c", "x", "y", "z", "n1", "n2", "n3", "n10", "w[0]", "v.1", "p_q", "INORDER"}

// randomSource returns a small EQN or BLIF text with the defects the source
// rules look for, mixed into mostly well-formed structure: redefinitions,
// repeated inputs, forward references, undriven names, cycles, a BLIF
// block that drives an input, bytes the EQN lexer rejects, .latch lines,
// comments, continuations and lost separators.
func randomSource(rng *rand.Rand) (data []byte, format string) {
	names := sourceNames[:4+rng.Intn(len(sourceNames)-4)]
	pick := func() string { return names[rng.Intn(len(names))] }
	chance := func(p float64) bool { return rng.Float64() < p }
	var inputs, defined []string
	// fresh names a signal not defined yet, usually, and otherwise any name:
	// a redefinition.
	fresh := func() string {
		for tries := 0; chance(0.9) && tries < 8; tries++ {
			if name := pick(); !slices.Contains(defined, name) {
				return name
			}
		}
		return pick()
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		inputs = append(inputs, fresh())
		defined = append(defined, inputs[len(inputs)-1])
	}
	// fanin names a signal defined so far, usually, and otherwise any name:
	// a forward reference, an undriven name or a cycle.
	fanin := func() string {
		if chance(0.85) {
			return defined[rng.Intn(len(defined))]
		}
		return pick()
	}
	var lines []string
	if chance(0.9) {
		var outs []string
		for i := 1 + rng.Intn(3); i > 0; i-- {
			outs = append(outs, fanin())
		}
		if rng.Intn(2) == 0 {
			format = "eqn"
			lines = append(lines, "INORDER = "+strings.Join(inputs, " ")+";", "OUTORDER = "+strings.Join(outs, " ")+";")
		} else {
			format = "blif"
			lines = append(lines, ".model t", ".inputs "+strings.Join(inputs, " "), ".outputs "+strings.Join(outs, " "))
		}
	} else {
		format = []string{"eqn", "blif"}[rng.Intn(2)]
	}
	var expr func(depth int) string
	expr = func(depth int) string {
		switch r := rng.Intn(10); {
		case depth > 2 || r < 4:
			if chance(0.1) {
				return []string{"0", "1"}[rng.Intn(2)]
			}
			return fanin()
		case r < 5:
			return "!" + expr(depth+1)
		case r < 6:
			return "(" + expr(depth+1) + ")"
		default:
			return expr(depth+1) + []string{" * ", " ^ ", " + "}[rng.Intn(3)] + expr(depth+1)
		}
	}
	for i := rng.Intn(7); i > 0; i-- {
		lhs := fresh()
		if format == "eqn" {
			lines = append(lines, lhs+" = "+expr(0)+";")
		} else {
			var ins []string
			for k := rng.Intn(3); k > 0; k-- {
				ins = append(ins, fanin())
			}
			lines = append(lines, strings.TrimSpace(".names "+strings.Join(ins, " ")+" "+lhs))
			row := ""
			for range ins {
				row += []string{"0", "1", "-"}[rng.Intn(3)]
			}
			lines = append(lines, strings.TrimSpace(row+" 1"))
		}
		defined = append(defined, lhs)
	}
	if format == "blif" {
		lines = append(lines, ".end")
	}
	// Damage: each kind now and then, so most texts stay close to valid.
	for _, damage := range []func(){
		func() { lines = append(lines, ".latch a q") },
		func() { lines = append(lines, ".names") },
		func() { lines = append(lines, "OUTORDER = "+pick()+";") },
		func() { lines = append(lines, "# "+pick()+" = x;") },
		func() {
			i, j := rng.Intn(len(lines)), rng.Intn(len(lines))
			lines[i], lines[j] = lines[j], lines[i]
		},
		func() { lines = append(lines, ".names "+inputs[0]+"\n1") },
	} {
		if len(lines) > 0 && chance(0.04) {
			damage()
		}
	}
	text := []byte(strings.Join(lines, "\n") + "\n")
	for _, damage := range []func(i int){
		func(i int) { text[i] = "@$\v\x80\x00;="[rng.Intn(7)] },
		func(i int) { text[i] = '\n' },
		func(i int) { text = append(text[:i:i], append([]byte(" \\\n"), text[i:]...)...) },
		func(i int) { text = append(text[:i:i], text[i+1:]...) },
		func(i int) { text = append(text[:i:i], append([]byte("//"), text[i:]...)...) },
	} {
		if len(text) > 0 && chance(0.04) {
			damage(rng.Intn(len(text)))
		}
	}
	return text, format
}

// sourceRulesSilentIfAccepted fails t when format's reader accepts data
// but the source rules, over the statement walk, still report something.
// AnalyzeSource relies on it to lint an accepted file with Analyze alone.
func sourceRulesSilentIfAccepted(t *testing.T, data []byte, format string) bool {
	t.Helper()
	if _, err := netlist.Read(bytes.NewReader(data), format, "accepted"); err != nil {
		return false
	}
	if fs := analyzeRaw(walkSource(data, format), Options{}); len(fs) > 0 {
		t.Fatalf("%s reader accepts the text but the source rules report %+v:\n%s", format, fs, data)
	}
	return true
}

// TestSourceRulesSilentOnAcceptedInput checks, on random texts and on the
// one class the rules once caught on accepted input (a BLIF .names block
// driving a primary input, which the reader dropped), that acceptance by
// the reader implies silence of the source rules.
func TestSourceRulesSilentOnAcceptedInput(t *testing.T) {
	drivesInput := ".model t\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.names b a\n1 1\n.end\n"
	sourceRulesSilentIfAccepted(t, []byte(drivesInput), "blif")
	rep := AnalyzeSource([]byte(drivesInput), "t.blif", "", Options{})
	if got := findings(rep, "multi-driven"); len(got) != 1 || !strings.Contains(got[0].Message, `"a" driven more than once (lines 2 and 6)`) {
		t.Errorf("multi-driven findings = %+v", rep.Findings)
	}

	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(1))
	accepted := map[string]int{}
	for i := 0; i < cases; i++ {
		data, format := randomSource(rng)
		if sourceRulesSilentIfAccepted(t, data, format) {
			accepted[format]++
		}
	}
	t.Logf("%d random texts, accepted: %v", cases, accepted)
	// The check only means something if the readers accept a fair share.
	for _, format := range []string{"eqn", "blif"} {
		if accepted[format] < cases/20 {
			t.Errorf("only %d of %d random texts accepted as %s", accepted[format], cases, format)
		}
	}
}
