package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// countingWriter records every Write it receives, so a test can assert that
// no line was torn across multiple Write calls.
type countingWriter struct {
	mu     sync.Mutex
	writes []string
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestProgressSinkConcurrentEmit hammers Emit from many goroutines (run with
// -race): every ticker line must arrive as exactly one Write, every line must
// be complete, and the [done/total] counters must hit every value exactly
// once — the guarantees a parallel cone rewrite relies on.
func TestProgressSinkConcurrentEmit(t *testing.T) {
	w := &countingWriter{}
	s := NewProgressSink(w)

	const bits = 64
	s.Emit(Event{Ev: EvSpanStart, Name: "rewrite", Span: 1,
		V: map[string]int64{"bits": bits, "threads": 8}})

	var wg sync.WaitGroup
	for bit := 0; bit < bits; bit++ {
		wg.Add(1)
		go func(bit int) {
			defer wg.Done()
			s.Emit(Event{Ev: EvBitFinish, Name: fmt.Sprintf("z%d", bit),
				V: map[string]int64{"subst": 10, "peak": 100, "cancelled": 5, "dur_ns": 1000}})
		}(bit)
	}
	wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.writes) != bits+1 {
		t.Fatalf("writes: %d, want %d (1 header + %d bits)", len(w.writes), bits+1, bits)
	}
	seen := make([]bool, bits+1)
	for _, line := range w.writes {
		if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
			t.Fatalf("torn or merged write: %q", line)
		}
		var done, total int
		if n, _ := fmt.Sscanf(line[strings.LastIndex(line, "["):], "[%d/%d]", &done, &total); n == 2 {
			if total != bits || done < 1 || done > bits || seen[done] {
				t.Fatalf("bad progress counter in %q (done=%d seen=%v)", line, done, seen[done])
			}
			seen[done] = true
		}
	}
	for done := 1; done <= bits; done++ {
		if !seen[done] {
			t.Fatalf("progress value %d/%d never printed", done, bits)
		}
	}
}

// TestProgressSinkConeSpanFiltering: per-cone child spans under the rewrite
// phase are suppressed (bit_finish lines cover them), while sibling phase
// spans and the cone-index summary still print.
func TestProgressSinkConeSpanFiltering(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgressSink(&buf)

	s.Emit(Event{Ev: EvSpanStart, Name: "rewrite", Span: 1, V: map[string]int64{"bits": 2, "threads": 1}})
	s.Emit(Event{Ev: EvSpanStart, Name: "z0", Span: 2, Parent: 1})
	s.Emit(Event{Ev: EvSpanEnd, Name: "z0", Span: 2, Parent: 1, V: map[string]int64{"dur_ns": 500}})
	s.Emit(Event{Ev: EvSpanEnd, Name: "cone-index", Span: 3, Parent: 1, V: map[string]int64{"dur_ns": 100}})
	s.Emit(Event{Ev: EvSpanEnd, Name: "rewrite", Span: 1, V: map[string]int64{"dur_ns": 9000}})
	s.Emit(Event{Ev: EvSpanStart, Name: "verify", Span: 4, Parent: 0})

	out := buf.String()
	if strings.Contains(out, "z0") {
		t.Fatalf("cone child span leaked into ticker:\n%s", out)
	}
	for _, want := range []string{"rewrite: 2 bits", "cone-index done", "rewrite done", "verify..."} {
		if !strings.Contains(out, want) {
			t.Fatalf("ticker lacks %q:\n%s", want, out)
		}
	}
}

// TestProgressSinkAnomalyLine: cone_anomaly events render with the ratio and
// bound spelled out.
func TestProgressSinkAnomalyLine(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgressSink(&buf)
	s.Emit(Event{Ev: EvConeAnomaly, Name: "z17", V: map[string]int64{
		"peak": 6000, "predicted": 10000, "ratio_pct": 60, "median_pct": 2}})
	out := buf.String()
	if !strings.Contains(out, "ANOMALY z17") || !strings.Contains(out, "60%") {
		t.Fatalf("anomaly line: %q", out)
	}
}
