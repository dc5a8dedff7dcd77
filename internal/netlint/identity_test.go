package netlint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/randnet"
)

// reportGolden holds, per design, the SHA-256 of its lint report's JSON
// with analysis_micros zeroed and the fields maskReport names blanked, as
// the analysis produced it when its semantic Result still kept every
// gate's facts and it still counted structural cone sizes. A Result that
// keeps only what its readers query, and a cone table without gate counts,
// must leave every other report byte as it was.
var reportGolden = map[string]string{
	"digitserial8_mapped.eqn":         "83f43213938b3ebc3637f55c2c83f27aa4b8be136445624ed8faeb0a27963964",
	"karatsuba16_syn.v":               "ce1de18a3f2741986db065ee2b24190fe0f624eae3e3ee8e80302f988e4b50e6",
	"mastrovito16.eqn":                "21788fca5d4ad7188c431b8a14b30b790f62bac2d33e44ce6a3cf7608416deb6",
	"montgomery12.blif":               "0c673420a8d305e0c86a99eed55fd66fe42966ee0e3aee7ffb46b7fd108b0cf6",
	"scrambled16.eqn":                 "42495e0937299bc88e9702c9334ddb69b1da3186af5dec4963e7c3d4c2619e97",
	"trojan8.eqn":                     "bd71fa3c1f5836125753953ffc0a7a1a316921ea39178ca7cdcd3caa7bfbb699",
	"lint/cyclic8.eqn":                "ff7a88a09d403efcf7f1bb6ba99cfd88dea2762b045fc1fb26e087c657abd290",
	"lint/deadgate8.eqn":              "679015c5387c335aefb6dcf3918f7d8106b94bbfc393ac48e11a493630ec93ec",
	"lint/keyopaque8.eqn":             "3ebc648499f1a0a4900ae29499071ab222d19529cbf0411a54af80e05b98c918",
	"lint/keyxor8.eqn":                "b920a9f79ffa71e092f7b95eaf656df5cd22135ce1dd467dc2913c47e14f2e36",
	"lint/multidriven8.eqn":           "7068cfd240bf34acecac4e0e51654bc834ebea6d192748245dfd4e87250d0295",
	"mastrovito/m=163":                "7c8e513c9cae0f79a69d926a1f0544d29f252c1c8c7c94fa969239180dd439b3",
	"mastrovito/m=233":                "d2f81bed015e6e1d89e0d6f202a4b0fcb25e2b7ff8d1330ccc770859266c9357",
	"mastrovito/m=283":                "bd5e68638d4f9b6c00a285b3c28eccc436554f554a8d52fe8921bb1fff77f5d1",
	"mastrovito/m=409":                "04f2d0e2f9f7c9671ce26a078dfaad239e9a97f5a607c347ae39be7c2b43c5c5",
	"montgomery/m=163":                "4957085a619f7f5f8931516abc254fc6c061bead182e2d94e8a8ac9448ef85ee",
	"montgomery/m=283":                "89910a31dabc2de7b212fe8c83b3b214a4f3c019d438b24d2377f31c76cc49e2",
	"mastrovito/m=64/synth+scrambled": "b3c612cf5985752c0d8b3551965324db74aefb40e98cb4cc18821781e2f77489",
	"mastrovito/m=16/locked":          "447cfa788c3040e214b9562e4b8383fc45d83a8fdad7af0d70fc4d63839a80d0",
	"randnet":                         "1ecb344d0606ccb81bc587c17937105f407433ccef52463582fadedd8e85cc99",
}

// TestReportsUnchangedBySlimSemantics lints the repository's test netlists
// (as gflint does) and the benchmark's NIST designs plus a synthesized and
// scrambled, a locked and a random design (as preflight does) and compares
// each report with reportGolden.
func TestReportsUnchangedBySlimSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("lints designs up to m=409")
	}
	hash := func(rep *netlint.Report) string {
		if rep.Algebra != nil {
			rep.Algebra.AnalysisMicros = 0
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(maskReport(t, data))
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{}
	files, err := filepath.Glob("../../testdata/*.*")
	if err != nil {
		t.Fatal(err)
	}
	lint, err := filepath.Glob("../../testdata/lint/*.eqn")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, lint...) {
		if filepath.Ext(path) == ".md" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := filepath.Rel("../../testdata", path)
		got[filepath.ToSlash(name)] = hash(netlint.AnalyzeSource(data, filepath.Base(path), "", netlint.Options{}))
	}
	preflight := func(name string, n *netlist.Netlist, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = hash(netlint.Analyze(n, netlint.Options{RequireMultiplier: true}))
	}
	for _, d := range []struct {
		arch  string
		m     int
		build func(int, gf2poly.Poly) (*netlist.Netlist, error)
	}{
		{"mastrovito", 163, gen.Mastrovito}, {"mastrovito", 233, gen.Mastrovito},
		{"mastrovito", 283, gen.Mastrovito}, {"mastrovito", 409, gen.Mastrovito},
		{"montgomery", 163, gen.Montgomery}, {"montgomery", 283, gen.Montgomery},
	} {
		p, err := polytab.Default(d.m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.build(d.m, p)
		preflight(fmt.Sprintf("%s/m=%d", d.arch, d.m), n, err)
	}
	p64, err := polytab.Default(64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(64, p64)
	if err == nil {
		n, err = opt.Synthesize(n)
	}
	if err == nil {
		n, err = diffcheck.Scramble(n, 3)
	}
	preflight("mastrovito/m=64/synth+scrambled", n, err)
	p16, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err = gen.Mastrovito(16, p16)
	if err == nil {
		n, _, err = gen.Obfuscate(n, gen.ObfuscateOptions{Style: gen.ObfStyle(1), Keys: 3, Seed: 5})
	}
	preflight("mastrovito/m=16/locked", n, err)
	n, err = randnet.New(rand.New(rand.NewSource(9)), randnet.Config{Inputs: 12, Gates: 300, Outputs: 6, Luts: true, Constants: true})
	preflight("randnet", n, err)

	for name, sum := range got {
		t.Logf("golden %q: %q", name, sum)
		if want, ok := reportGolden[name]; !ok {
			t.Errorf("%s: no golden report hash", name)
		} else if sum != want {
			t.Errorf("%s: report hash %s, want %s", name, sum, want)
		}
	}
	for name := range reportGolden {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden design not linted", name)
		}
	}
}

// maskReport blanks, in a report's JSON, what the analysis changed on
// purpose when it stopped counting structural cone sizes: each cone's
// "gates", the cone-cost finding's message and the suggested cone timeout,
// which were built on them. Everything else is kept, re-marshalled with
// sorted keys.
func maskReport(t *testing.T, data []byte) []byte {
	t.Helper()
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	delete(rep, "suggested_cone_timeout_ms")
	if cones, ok := rep["cones"].([]any); ok {
		for _, c := range cones {
			delete(c.(map[string]any), "gates")
		}
	}
	if fs, ok := rep["findings"].([]any); ok {
		for _, f := range fs {
			if f := f.(map[string]any); f["rule"] == "cone-cost" {
				f["message"] = ""
			}
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
