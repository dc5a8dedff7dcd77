package diffcheck

import (
	"testing"
	"time"
)

// TestOverloadCaseIsolatesTenants runs overload cases directly: under a
// greedy batch-flooder and a deadline-abuser, the well-behaved tenant must
// still extract its planted P(x) at bounded latency, no quota may be
// violated, and the attack machinery (quota rejection, dedup collapse,
// deadline expiry) must all demonstrably fire.
func TestOverloadCaseIsolatesTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("overload cases take seconds each")
	}
	cfg := Config{Seed: 17, Kind: KindOverload, MinM: 4, MaxM: 8}
	for idx := 0; idx < 2; idx++ {
		c := NewCase(idx, cfg)
		if c.Kind != KindOverload {
			t.Fatalf("case %d sampled kind %q, want overload", idx, c.Kind)
		}
		res := Run(c)
		if res.Status != Pass {
			t.Fatalf("case %d [%s] failed at %s: %s", idx, c.Label(), res.Stage, res.Err)
		}
		if res.Verdict == nil {
			t.Fatalf("case %d did not run the overload pipeline", idx)
		}
		if res.Verdict["quota_rejects"] == 0 || res.Verdict["deduped"] == 0 || res.Verdict["deadline_expired"] == 0 {
			t.Fatalf("case %d engaged no admission machinery: %+v", idx, res)
		}
	}
}

// TestOverloadCampaignAggregates runs a small overload campaign end to end
// and checks the summary carries the admission tallies: a campaign in which
// no quota ever rejected and nothing ever deduped means the adversarial
// tenants are not actually attacking.
func TestOverloadCampaignAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("overload campaigns take seconds")
	}
	sum, err := RunCampaign(Config{
		N: 2, Seed: 5, Kind: KindOverload, MinM: 4, MaxM: 7,
		Workers: 1, Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL case %d [%s] at %s: %s", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		}
		t.Fatalf("%d of %d overload cases failed", sum.Failed, sum.Cases)
	}
	if sum.Tally.Verdicts != 2 {
		t.Fatalf("Overloaded = %d, want 2", sum.Tally.Verdicts)
	}
	if sum.Tally.Sum("quota_rejects") == 0 || sum.Tally.Sum("deduped") == 0 || sum.Tally.Sum("deadline_expired") == 0 {
		t.Fatalf("campaign engaged no admission machinery: %+v", sum)
	}
	if sum.ByArch["overload"] != 2 {
		t.Fatalf("ByArch = %v", sum.ByArch)
	}
}
