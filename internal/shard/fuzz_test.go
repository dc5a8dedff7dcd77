package shard

import (
	"encoding/json"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// validEnvelopeJSON builds a well-formed result envelope for seeding.
func validEnvelopeJSON(tb testing.TB) []byte {
	tb.Helper()
	return encodeResultEnvelope(3, pack(okResult(0), okResult(5), failResult(2)))
}

func FuzzResultEnvelope(f *testing.F) {
	f.Add(validEnvelopeJSON(f))
	f.Add([]byte(`{"epoch":1,"cones":[{"bit":0,"status":"budget","err":"x"}]}`))
	f.Add([]byte(`{"epoch":0,"cones":[]}`))
	f.Add([]byte(`{"epoch":1,"cones":[{"bit":-1}]}`))
	f.Add([]byte(`{"epoch":1,"cones":[{"bit":2,"status":"ok","expr":"garbage","final_terms":9}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"epoch":1,"cones":[{"bit":0,"status":""}]}`))
	f.Add([]byte(`{"epoch":1,"cones":[{"bit":0,"status":"cancelled","err":"x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, results, err := DecodeResultEnvelope(data)
		if err != nil {
			return
		}
		// Whatever the decoder accepts must uphold the envelope invariants
		// the pool relies on: a live epoch, a bounded batch, distinct
		// non-negative bits with terminal statuses, and completed cones
		// whose unpacked expression has the recorded term count.
		if epoch == 0 {
			t.Fatal("accepted envelope with epoch 0")
		}
		if len(results) == 0 || len(results) > maxEnvelopeCones {
			t.Fatalf("accepted envelope with %d cones", len(results))
		}
		seen := map[int]bool{}
		for _, br := range results {
			if br.Bit < 0 || seen[br.Bit] {
				t.Fatalf("accepted bad bit %d", br.Bit)
			}
			seen[br.Bit] = true
			if br.Status == "" || br.Status == rewrite.StatusCancelled {
				t.Fatalf("bit %d: accepted non-terminal status %q", br.Bit, br.Status)
			}
			if br.Status == rewrite.StatusOK && br.Expr.Len() != br.FinalTerms {
				t.Fatalf("bit %d: expression has %d terms, recorded %d", br.Bit, br.Expr.Len(), br.FinalTerms)
			}
		}
	})
}

func FuzzGrant(f *testing.F) {
	valid, err := json.Marshal(Grant{
		Lease: "0123456789abcdef", Epoch: 1, Hash: testHash,
		Cones: []int{0, 1, 2}, DeadlineUnixNS: 1 << 50,
		BudgetTerms: 1000, ConeDeadlineMS: 5000, Netlist: "# x\nINORDER = a;\nOUTORDER = z;\nz = a;\n",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"lease":"XYZ","epoch":1,"hash":"` + testHash + `","cones":[0]}`))
	f.Add([]byte(`{"lease":"0123456789abcdef","epoch":1,"hash":"short","cones":[0]}`))
	f.Add([]byte(`{"lease":"0123456789abcdef","epoch":1,"hash":"` + testHash + `","cones":[0,0]}`))
	f.Add([]byte(`{"lease":"0123456789abcdef","epoch":1,"hash":"` + testHash + `","cones":[0],"budget_terms":-1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrant(data)
		if err != nil {
			return
		}
		if !validLeaseID(g.Lease) || g.Epoch == 0 {
			t.Fatalf("accepted grant with bad identity: %+v", g)
		}
		if len(g.Hash) != 64 {
			t.Fatalf("accepted grant with bad hash %q", g.Hash)
		}
		if len(g.Cones) == 0 || len(g.Cones) > maxEnvelopeCones {
			t.Fatalf("accepted grant with %d cones", len(g.Cones))
		}
		if g.BudgetTerms < 0 || g.ConeDeadlineMS < 0 {
			t.Fatal("accepted grant with negative governance hints")
		}
	})
}

// TestEnvelopeRoundTrip pins the wire form: a packed envelope decodes to
// bit-identical results.
func TestEnvelopeRoundTrip(t *testing.T) {
	data := validEnvelopeJSON(t)
	epoch, results, err := DecodeResultEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 || len(results) != 3 {
		t.Fatalf("decoded epoch %d with %d results", epoch, len(results))
	}
	br, want := results[0], okResult(0)
	if br.Bit != want.Bit || br.Status != want.Status || br.Expr.String() != want.Expr.String() {
		t.Fatalf("round trip drifted: %+v vs %+v", br, want)
	}
	// Re-encode and decode again: stable.
	if _, _, err := DecodeResultEnvelope(encodeResultEnvelope(epoch, results)); err != nil {
		t.Fatal(err)
	}
	var c checkpoint.Cone
	if err := json.Unmarshal([]byte(`{"bit":1,"status":"ok","expr":"!!!","final_terms":1}`), &c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BitResult(); err == nil {
		t.Fatal("corrupt packed expression must not decode")
	}
}
