package diffcheck

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestEveryKindRunsACampaign runs a two-case campaign of every kind in the
// kinds table, so a kind added later is exercised here without a test of
// its own: every case passes, and a kind with a report line fills it from
// its verdicts.
func TestEveryKindRunsACampaign(t *testing.T) {
	ks := make([]Kind, 0, len(kinds))
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		t.Run(string(k), func(t *testing.T) {
			sum, err := RunCampaign(Config{
				N: 2, Seed: 1, Kind: k, MinM: 4, MaxM: 6, Workers: 2, Timeout: 2 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range sum.Failures {
				t.Errorf("FAIL case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
			}
			if sum.Cases != 2 || sum.Passed != 2 || sum.Tally.Cases != 2 {
				t.Fatalf("%d cases, %d passed, %d tallied; want 2 each", sum.Cases, sum.Passed, sum.Tally.Cases)
			}
			if kinds[k].summary == nil {
				return
			}
			if sum.Tally.Verdicts != 2 {
				t.Errorf("%d verdicts, want 2", sum.Tally.Verdicts)
			}
			if sum.Tally.Line() == "" {
				t.Error("empty report line")
			}
		})
	}
	if _, err := RunCampaign(Config{N: 1, Kind: "nosuch"}); err == nil {
		t.Error("unknown campaign kind accepted")
	}
}

// TestCaseLabelsGolden pins case sampling: the labels of the CI campaigns
// (the gffuzz invocations in .github/workflows/ci.yml, with gffuzz's flag
// defaults) must match the golden file, so a change to the order in which
// NewCase consumes a case's random stream shows up as a diff.
func TestCaseLabelsGolden(t *testing.T) {
	ci := func(cfg Config) Config {
		cfg.MaxOptPasses, cfg.Scramble = 2, true
		return cfg
	}
	campaigns := []struct {
		args string
		cfg  Config
	}{
		{"-n 200 -seed 1", ci(Config{N: 200, Seed: 1, MinM: 3, MaxM: 12, Adversarial: 10})},
		{"-n 20 -seed 1 -diagnose -inject 1 -m 5-10 -adversarial 0",
			ci(Config{N: 20, Seed: 1, Kind: KindDiagnose, Inject: 1, MinM: 5, MaxM: 10})},
		{"-n 20 -seed 1 -resume -m 4-12 -adversarial 0", ci(Config{N: 20, Seed: 1, Kind: KindResume, MinM: 4, MaxM: 12})},
		{"-n 30 -seed 1 -obfuscate", ci(Config{N: 30, Seed: 1, Kind: KindObfuscate, MinM: 3, MaxM: 12, Adversarial: 10})},
		{"-n 25 -seed 1 -chaos -m 4-16 -adversarial 0", ci(Config{N: 25, Seed: 1, Kind: KindChaos, MinM: 4, MaxM: 16})},
		{"-n 2 -overload -seed 9", ci(Config{N: 2, Seed: 9, Kind: KindOverload, MinM: 3, MaxM: 12, Adversarial: 10})},
	}
	var got strings.Builder
	for _, c := range campaigns {
		fmt.Fprintf(&got, "gffuzz %s\n", c.args)
		for i := 0; i < c.cfg.N; i++ {
			fmt.Fprintf(&got, "case %3d: %s\n", i, NewCase(i, c.cfg).Label())
		}
	}
	want, err := os.ReadFile("testdata/case_labels.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
