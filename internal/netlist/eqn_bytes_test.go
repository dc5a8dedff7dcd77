package netlist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/randnet"
)

// writeEQNDigests pins the SHA-256 of WriteEQN's output per design. The
// bytes are the content hash checkpoints and gfred's dedup key on
// (checkpoint.HashNetlist), so a rendering change must not move them:
// snapshots written by an older build would stop matching their netlists.
var writeEQNDigests = map[string]string{
	"deadgate8.eqn":           "f2cf4bb1c553e4325d14b0b390ff51d80a8e69b3e029dd484dd38c3c13585d4b",
	"digitserial8_mapped.eqn": "c78b8651c855c6b38c449cab15de468b83fbcdb64593cde7b6baca73f8151c16",
	"keyopaque8.eqn":          "82e2029a539d71530ff0fd03584eaaf235a75ba087c7de81753352d0769e6e11",
	"keyxor8.eqn":             "4af8917fdb24e45c74dded0e411201cc53eb9509132d88adcd03e3eed52353a4",
	"mastrovito-m16-aoi":      "973b7ea04a7ba1b5b1e1538c3b4c0ab94c54199e1a3eafb60e6c9bf459f9fe4c",
	"mastrovito-m16-fuse":     "54dd58c6c2e580917f3e06c1e2d0b54e70d0fc642ab70ecabdcecddb046960f2",
	"mastrovito-m16-nand":     "f3358947792c9f25307553965cdeb85036bd0077d703437de9bc987907b3e293",
	"mastrovito-m8-aoi":       "5688d8071645b35e55560035f41608ab0eebeb86acf65cbf252b2db0cf0d476e",
	"mastrovito-m8-fuse":      "77b7b78255cdd5c68915d22070c81d16260d98eca58bb6d425db4bba7122c5e8",
	"mastrovito-m8-nand":      "bbf3263bf1c0a2917ee0ad45ec853e0a94f1374b75371a07353d5ce41a841cbd",
	"mastrovito16.eqn":        "c7651551a310c676cc021486998261692e8e9bcd4d64d93aa0246528c38797f7",
	"montgomery-m16-aoi":      "6fb290c719154b56fa18a3bb8b408554148ff3a33c383387830b73e25361f03d",
	"montgomery-m16-fuse":     "d2a5c183d248cee86f894ad4e8f6bf7ff9e093d942ce53bb60d946c771204c23",
	"montgomery-m16-nand":     "f5af3eff03083b238defa065d7bd261f72e667b0dc225f21a77c24d52c8790c2",
	"montgomery-m8-aoi":       "0755ea9ef50ce45bb8611c6c2e5962dd271f39bc116c90ad20946905c7573681",
	"montgomery-m8-fuse":      "1b67526df01322b36483b8e957557532157a81c6b99b75839e592d47329c5d73",
	"montgomery-m8-nand":      "2ccc128b24c8c660ecf8fd2092466c7908b3c30a907bfc3c2d604bd286df056e",
	"randlut-1":               "a23337689ff9139fd7e8194bdf42431364733f5670934fa39a350298a45b4117",
	"randlut-2":               "0e8803ca2b5d8e4e24467db8ac846f6de4e0ac76cbb731620e7bf72c6f78c25c",
	"randlut-3":               "2ce7cd8f06b34c731400ff5bfe4362c983aec284881a80bcb730aa05aa4808fe",
	"randlut-4":               "4c303088d8a87eef49da15fbccdffc5e1462f1a599b757ca094addf44bbd38da",
	"scrambled16.eqn":         "7ea9d19d59e90d70e3661fdd46f9d8eb46c57a801a7666bccab7436275a703e5",
	"trojan8.eqn":             "528a36419779a2277ea95e25a072780a9ce7dfda9ee3fa77925eaac2e9137e40",
}

// eqnDesigns covers every gate type and naming case WriteEQN renders: the
// gfmultgen technology mappings (fuse, nand, aoi), random netlists with
// LUTs, constants, repeated fanins and anonymous gates, and every committed
// EQN netlist that parses.
func eqnDesigns(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	must := func(n *netlist.Netlist, err error) *netlist.Netlist {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ds := map[string]*netlist.Netlist{}
	for _, m := range []int{8, 16} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		for arch, build := range map[string]func(int, gf2poly.Poly) (*netlist.Netlist, error){
			"mastrovito": gen.Mastrovito, "montgomery": gen.Montgomery,
		} {
			base := must(build(m, p))
			pre := fmt.Sprintf("%s-m%d", arch, m)
			ds[pre+"-fuse"] = must(opt.TechMap(base, opt.MapFuseInverters))
			ds[pre+"-nand"] = must(opt.TechMap(base, opt.MapNandHeavy))
			ds[pre+"-aoi"] = must(opt.MapAOI(must(opt.TechMap(base, opt.MapFuseInverters))))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds[fmt.Sprintf("randlut-%d", seed)] = must(randnet.New(r, randnet.Config{
			Inputs: 6, Gates: 120, Outputs: 5, Luts: true, Constants: true,
		}))
	}
	files, err := filepath.Glob("../../testdata/*.eqn")
	if err != nil || len(files) == 0 {
		t.Fatalf("committed EQN netlists: %v (%d found)", err, len(files))
	}
	lint, _ := filepath.Glob("../../testdata/lint/*.eqn")
	for _, f := range append(files, lint...) {
		src, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := netlist.ReadEQN(src, filepath.Base(f))
		src.Close()
		if err != nil {
			continue // planted source-level defects (cycles, multi-drivers) do not parse
		}
		ds[filepath.Base(f)] = n
	}
	return ds
}

// TestWriteEQNBytesPinned compares WriteEQN's output with the pinned
// digests.
func TestWriteEQNBytesPinned(t *testing.T) {
	ds := eqnDesigns(t)
	seen := map[netlist.GateType]bool{}
	for name, n := range ds {
		for typ := range n.Stats().ByType {
			seen[typ] = true
		}
		h := sha256.New()
		if err := n.WriteEQN(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := writeEQNDigests[name]; !ok || got != want {
			t.Errorf("%q: %q, // want %q", name, got, want)
		}
	}
	for typ := netlist.Input; typ <= netlist.Lut; typ++ {
		if !seen[typ] {
			t.Errorf("no pinned design has a %v gate", typ)
		}
	}
	if len(ds) != len(writeEQNDigests) {
		t.Errorf("%d designs rendered, %d digests pinned", len(ds), len(writeEQNDigests))
	}
}
