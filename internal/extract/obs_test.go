package extract

import (
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
)

// TestExtractPhaseSpans: a full verified extraction must record the whole
// pipeline's phase breakdown — cone-index, rewrite, extract, golden-model and
// verify — and leave one bit_start/bit_finish pair per output bit in the
// event stream.
func TestExtractPhaseSpans(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	rec := obs.NewRecorder(mem)
	ext, err := IrreduciblePolynomial(n, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Verified {
		t.Fatal("verification should have run")
	}

	got := map[string]int{}
	for _, sp := range rec.Spans() {
		got[sp.Name]++
	}
	for _, phase := range []string{"cone-index", "rewrite", "extract", "golden-model", "verify"} {
		if got[phase] != 1 {
			t.Errorf("phase %q recorded %d times, want 1 (all: %v)", phase, got[phase], got)
		}
	}

	if starts := mem.ByType(obs.EvBitStart); len(starts) != ext.M {
		t.Errorf("bit_start events %d, want %d", len(starts), ext.M)
	}
	if fins := mem.ByType(obs.EvBitFinish); len(fins) != ext.M {
		t.Errorf("bit_finish events %d, want %d", len(fins), ext.M)
	}
	if s := rec.Snapshot(); s.Counters["bits_done"] != int64(ext.M) {
		t.Errorf("bits_done = %d, want %d", s.Counters["bits_done"], ext.M)
	}

	// SkipVerify must suppress the golden-model and verify spans.
	rec2 := obs.NewRecorder()
	if _, err := IrreduciblePolynomial(n, Options{Recorder: rec2, SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range rec2.Spans() {
		if sp.Name == "golden-model" || sp.Name == "verify" {
			t.Errorf("span %q recorded despite SkipVerify", sp.Name)
		}
	}
}
