package rewrite

import (
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
)

// buildCancelPair builds z = g·a + g·b with g = a+b: substituting g (two
// occurrences, two-term expansion) produces four terms of which the two a·b
// copies vanish mod 2 — the smallest netlist with a known-exact cancellation
// count, and one where the pre-fix estimate (which assumed a single
// occurrence) reported an odd count, impossible for pairwise elimination.
func buildCancelPair(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New("cancelpair")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	g, _ := n.AddGate(netlist.Xor, a, b)
	h1, _ := n.AddGate(netlist.And, g, a)
	h2, _ := n.AddGate(netlist.And, g, b)
	z, _ := n.AddGate(netlist.Xor, h1, h2)
	n.MarkOutput("z", z)
	return n
}

func TestExactCancellationCount(t *testing.T) {
	n := buildCancelPair(t)
	br, err := NewWorker(nil).RewriteCone(n, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (a+b)a + (a+b)b = a + ab + ab + b → exactly 2 cancelled, 2 final.
	if br.Cancelled != 2 {
		t.Errorf("Cancelled = %d, want 2", br.Cancelled)
	}
	if br.FinalTerms != 2 {
		t.Errorf("FinalTerms = %d, want 2", br.FinalTerms)
	}
	if br.Cancelled%2 != 0 {
		t.Errorf("Cancelled = %d is odd; mod-2 eliminations come in pairs", br.Cancelled)
	}

	var sb strings.Builder
	traced, err := TraceOutput(n, n.Outputs()[0], &sb)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cancelled != br.Cancelled {
		t.Errorf("trace counted %d cancellations, rewrite counted %d", traced.Cancelled, br.Cancelled)
	}
	if !strings.Contains(sb.String(), "[2 terms cancelled mod 2]") {
		t.Errorf("trace missing the exact cancellation annotation:\n%s", sb.String())
	}
}

func TestTraceCancelledAgreesOnMultipliers(t *testing.T) {
	// The same exact formula runs in the parallel engine and the tracer;
	// their per-bit totals must agree on a real multiplier.
	p, err := polytab.Default(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(4, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Outputs(n, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.Bits {
		traced, err := TraceOutput(n, n.Outputs()[br.Bit], &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Cancelled != br.Cancelled {
			t.Errorf("bit %d: trace %d vs rewrite %d cancellations", br.Bit, traced.Cancelled, br.Cancelled)
		}
		if br.Cancelled%2 != 0 {
			t.Errorf("bit %d: odd cancellation count %d", br.Bit, br.Cancelled)
		}
	}
}

func TestOutputsWithRecorder(t *testing.T) {
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
	res, err := Outputs(n, Options{Threads: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	m := len(res.Bits)
	if got := mem.ByType(obs.EvBitStart); len(got) != m {
		t.Errorf("bit_start events: %d, want %d", len(got), m)
	}
	fins := mem.ByType(obs.EvBitFinish)
	if len(fins) != m {
		t.Fatalf("bit_finish events: %d, want %d", len(fins), m)
	}
	// Every finish payload must mirror the returned BitStats.
	byBit := map[int64]obs.Event{}
	for _, e := range fins {
		byBit[e.V["bit"]] = e
	}
	for _, br := range res.Bits {
		e, ok := byBit[int64(br.Bit)]
		if !ok {
			t.Fatalf("no bit_finish for bit %d", br.Bit)
		}
		if e.Name != br.Name || e.V["subst"] != int64(br.Substitutions) ||
			e.V["peak"] != int64(br.PeakTerms) || e.V["cancelled"] != int64(br.Cancelled) ||
			e.V["final"] != int64(br.FinalTerms) || e.V["cone"] != int64(br.ConeGates) {
			t.Errorf("bit %d: event payload %v does not match stats %+v", br.Bit, e.V, br.BitStats)
		}
	}

	// Span bookkeeping: one rewrite span and one child span per output cone
	// parented under it — all wall.
	var rewriteStarts, coneStarts []obs.Event
	for _, e := range mem.ByType(obs.EvSpanStart) {
		switch e.Name {
		case "rewrite":
			rewriteStarts = append(rewriteStarts, e)
		default:
			coneStarts = append(coneStarts, e)
		}
	}
	if len(rewriteStarts) != 1 || rewriteStarts[0].V["bits"] != int64(m) ||
		rewriteStarts[0].V["threads"] != 4 {
		t.Errorf("rewrite span_start %+v", rewriteStarts)
	}
	if len(coneStarts) != m {
		t.Errorf("cone span_start events: %d, want %d", len(coneStarts), m)
	}
	for _, e := range coneStarts {
		if e.Parent != rewriteStarts[0].Span {
			t.Errorf("cone span %q parent %d, want rewrite span %d", e.Name, e.Parent, rewriteStarts[0].Span)
		}
	}
	spanNames := map[string]bool{}
	coneSpans := 0
	for _, sp := range rec.Spans() {
		spanNames[sp.Name] = true
		if sp.Parent != 0 && sp.Parent == rewriteStarts[0].Span {
			coneSpans++
			if sp.Status != string(StatusOK) {
				t.Errorf("cone span %q status %q", sp.Name, sp.Status)
			}
			if sp.Attrs["peak_terms"] <= 0 || sp.Attrs["subst"] <= 0 {
				t.Errorf("cone span %q attrs %v", sp.Name, sp.Attrs)
			}
		}
	}
	if coneSpans != m {
		t.Errorf("cone child spans recorded: %d, want %d", coneSpans, m)
	}
	if !spanNames["rewrite"] || spanNames["cone-index"] {
		t.Errorf("spans %v, want rewrite and no cone-index", spanNames)
	}

	// Metric consistency with the returned result.
	s := rec.Snapshot()
	if got := s.Counters["substitutions"]; got != int64(res.TotalSubstitutions()) {
		t.Errorf("substitutions metric %d, result says %d", got, res.TotalSubstitutions())
	}
	if got := s.Counters["cancellations"]; got != int64(res.TotalCancelled()) {
		t.Errorf("cancellations metric %d, result says %d", got, res.TotalCancelled())
	}
	if got := s.Counters["bits_done"]; got != int64(m) {
		t.Errorf("bits_done %d, want %d", got, m)
	}
	// All bits retired: no live terms, no busy workers; watermarks were hit.
	if s.Gauges["live_terms"] != 0 || s.Gauges["workers_busy"] != 0 {
		t.Errorf("gauges not drained: %v", s.Gauges)
	}
	if s.GaugeMaxes["workers_busy"] < 1 || s.GaugeMaxes["workers_busy"] > 4 {
		t.Errorf("workers_busy watermark %d outside [1,4]", s.GaugeMaxes["workers_busy"])
	}
	// The resident-terms watermark is at least one bit's peak and at most the
	// sum of all peaks (all bits in flight at once).
	var sum int64
	for _, br := range res.Bits {
		sum += int64(br.PeakTerms)
	}
	if w := s.GaugeMaxes["live_terms"]; w < int64(res.PeakTerms()) || w > sum {
		t.Errorf("live_terms watermark %d outside [%d,%d]", w, res.PeakTerms(), sum)
	}
	if got := s.Histograms["peak_terms"].Count; got != int64(m) {
		t.Errorf("peak_terms histogram count %d, want %d", got, m)
	}

	// The recorder must not change the math.
	plain, err := Outputs(n, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for bit := range plain.Bits {
		if !plain.Bits[bit].Expr.Equal(res.Bits[bit].Expr) {
			t.Errorf("bit %d: expression differs with recorder attached", bit)
		}
	}
}
