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
// with analysis_micros zeroed, as the semantic sweep produced it when its
// Result still kept every gate's facts. A Result that keeps only what its
// readers query must leave every report byte for byte as it was.
var reportGolden = map[string]string{
	"digitserial8_mapped.eqn":         "7c3b1110b3ed6ead8df653f149f897150613855c092c57ebe37389611e2595ab",
	"karatsuba16_syn.v":               "377d24b288b46d4c7a5b2aad55827f1f035013f4f9860c64a47cc592df9885a9",
	"mastrovito16.eqn":                "22f09bdbcc6d33240c89f45f9a4d78f4155d4719d3da140b7622619148aa8d9c",
	"montgomery12.blif":               "3c0e1794b2fa86890cd502aa323515d13c57225a6c062d1d2a49fb675cebb9c4",
	"scrambled16.eqn":                 "d3433f860e59d6c71398e0818dce9f1f9a140c1bd6e44794011553d23c30809f",
	"trojan8.eqn":                     "27f3debf2e0ef5a1e24794a9954eb54a1c3fa013090a2290b78df87f3100434d",
	"lint/cyclic8.eqn":                "1651311ea6ac25501f5807a0874ad256194ff135d0b24e870361eaaf8cd7fd8d",
	"lint/deadgate8.eqn":              "d82375f8416cc25da595a6f9d32032422b56b9b42657044df89e62926fbece88",
	"lint/keyopaque8.eqn":             "921a6665804d0bd3155221f39e2ee8bb7213ad4ddbce15a3cee8067a014cb3ec",
	"lint/keyxor8.eqn":                "6e415d587389b5df2b33d727d233e9068e380702db7c61ab35fc08835d369f04",
	"lint/multidriven8.eqn":           "9141a48710a089de69c07ade0acf9ccd3015de35340eb54e517bc126ba207e38",
	"mastrovito/m=163":                "07552b2b2049cfd2097313794cbab8bcb55534569c2d193e0674e87513c6dcee",
	"mastrovito/m=233":                "c26500aea63a1c7c2c089bbd00e98e9e8c48afded151aae6b5dbbdccfb41e97a",
	"mastrovito/m=283":                "48af1678c7cb825bc9729662b079d15f3530693fc64348ed7841b536b374f6e0",
	"mastrovito/m=409":                "8c55c58d342f9665d0fb2f10e9764642beb8cf8d98a947634d5aa4f00eda30fa",
	"montgomery/m=163":                "7d00f36b2091d0675ba21d144e583a414da80119d29965f2d1f68ba29fcc21a5",
	"montgomery/m=283":                "04a35ae597bfc5b35619061601679e2e06d66eb224aa463ed5ab7d0da8bf8567",
	"mastrovito/m=64/synth+scrambled": "ecd084ea61a662790d72c8e82d6a1ea5b683fbbd16d8ddf7b71758f012cbfd58",
	"mastrovito/m=16/locked":          "a7bd4278f847586a323102fb78f8565f9abba93b5c033a5f7d1c96d1a60cae8a",
	"randnet":                         "3595bdab4c3de86d8c872d7771fb3685fbfaf7bfac91dea31a2d457fdeea311c",
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
		sum := sha256.Sum256(data)
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
