package diffcheck

import (
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

func TestRunResumeCase(t *testing.T) {
	c := Case{
		Index: 0, Seed: 42, Kind: KindResume,
		M: 16, P: gf2poly.MustParse("x^16+x^5+x^3+x^2+1"),
		Arch: ArchMastrovito, Threads: 1,
	}
	res := Run(c)
	if res.Status != Pass {
		t.Fatalf("resume case failed at %s: %s", res.Stage, res.Err)
	}
	if res.Verdict == nil {
		t.Fatal("passing resume case did not mark Resumed")
	}
	if res.Verdict["reused"] < 1 || res.Verdict["reused"] > int64(c.M) {
		t.Fatalf("reused %d cones, want 1..%d", res.Verdict["reused"], c.M)
	}
}

func TestRunResumeCaseAcrossArchs(t *testing.T) {
	for i, arch := range []Arch{ArchMatrix, ArchMontgomery, ArchKaratsuba} {
		c := Case{
			Index: i, Seed: int64(100 + i), Kind: KindResume,
			M: 8, P: gf2poly.MustParse("x^8+x^4+x^3+x+1"),
			Arch: arch, Threads: 1,
		}
		if res := Run(c); res.Status != Pass {
			t.Errorf("%s: failed at %s: %s", arch, res.Stage, res.Err)
		}
	}
}

func TestResumeCampaignSampling(t *testing.T) {
	cfg := Config{N: 10, Seed: 7, Kind: KindResume, MinM: 4, MaxM: 10}
	for i := 0; i < cfg.N; i++ {
		c := NewCase(i, cfg)
		if c.Kind != KindResume {
			t.Fatalf("case %d sampled kind %s, want resume", i, c.Kind)
		}
		if c.M < 4 || c.M > 10 {
			t.Fatalf("case %d sampled m=%d outside 4..10", i, c.M)
		}
		if len(c.Opt) != 0 || c.Format != "" || c.Scramble {
			t.Fatalf("resume case %d carries pipeline stages: %+v", i, c)
		}
		if !strings.HasPrefix(c.Label(), "resume/") {
			t.Fatalf("case %d label %q", i, c.Label())
		}
	}
}

func TestResumeCampaignEndToEnd(t *testing.T) {
	sum, err := RunCampaign(Config{N: 6, Seed: 11, Kind: KindResume, MinM: 4, MaxM: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		}
		t.Fatalf("%d of %d resume cases failed", sum.Failed, sum.Cases)
	}
	if sum.Tally.Verdicts != 6 {
		t.Fatalf("Resumed=%d, want 6", sum.Tally.Verdicts)
	}
	if sum.Tally.Sum("reused") < 6 {
		t.Fatalf("ReusedCones=%d, want at least one per case", sum.Tally.Sum("reused"))
	}
	if sum.ByArch["resume"] != 6 {
		t.Fatalf("ByArch: %v", sum.ByArch)
	}
}
