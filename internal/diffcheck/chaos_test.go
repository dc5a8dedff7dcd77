package diffcheck

import (
	"testing"
	"time"
)

// TestChaosCaseRecoversPlantedP runs a handful of chaos cases directly:
// despite killed workers, expired leases and duplicated submissions, each
// must recover its planted P(x) exactly with zero double-accepted cones.
func TestChaosCaseRecoversPlantedP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cases take seconds each")
	}
	cfg := Config{Seed: 11, Kind: KindChaos, MinM: 4, MaxM: 8}
	for idx := 0; idx < 4; idx++ {
		c := NewCase(idx, cfg)
		if c.Kind != KindChaos {
			t.Fatalf("case %d sampled kind %q, want chaos", idx, c.Kind)
		}
		res := Run(c)
		if res.Status != Pass {
			t.Fatalf("case %d [%s] failed at %s: %s", idx, c.Label(), res.Stage, res.Err)
		}
		if res.Verdict == nil {
			t.Fatalf("case %d did not run the chaos pipeline", idx)
		}
	}
}

// TestChaosCampaignAggregates runs a small campaign end to end and checks
// the summary carries the chaos tallies: with 40ms leases and a partitioner
// in play, a multi-case campaign that never expires a lease would mean the
// fault injection is not actually firing.
func TestChaosCampaignAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns take seconds")
	}
	sum, err := RunCampaign(Config{
		N: 6, Seed: 3, Kind: KindChaos, MinM: 4, MaxM: 7,
		Workers: 2, Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		}
		t.Fatalf("%d of %d chaos cases failed", sum.Failed, sum.Cases)
	}
	if sum.Tally.Verdicts != 6 {
		t.Fatalf("Chaosed = %d, want 6", sum.Tally.Verdicts)
	}
	if sum.Tally.Sum("expired") == 0 {
		t.Fatal("no lease ever expired across the campaign: fault injection is not firing")
	}
	if sum.ByArch["chaos"] != 6 {
		t.Fatalf("ByArch = %v", sum.ByArch)
	}
}
