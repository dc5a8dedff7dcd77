package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// NDJSONSink streams every event as one JSON object per line — the
// machine-readable form the Figure-4 per-bit profile is rebuilt from
// (see EXPERIMENTS.md). Safe for concurrent Emit.
type NDJSONSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewNDJSONSink wraps w (buffered; call Recorder.Close / Flush at the end).
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	bw := bufio.NewWriter(w)
	return &NDJSONSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event line. Encoding errors are sticky and surface from
// Flush, so the hot path never has to check.
func (s *NDJSONSink) Emit(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

// Flush drains the buffer and reports the first error seen.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// ProgressSink renders a human-readable live ticker: one line per phase
// boundary and per completed output bit, intended for stderr while a large
// extraction runs. It learns the total bit count from the rewrite span's
// start event, so completion lines read "[ 42/163]".
//
// Safe for concurrent Emit: the cone workers all finish bits in parallel,
// so the done/total counters sit behind the sink's mutex and every ticker
// line is composed in a private buffer and handed to the writer as ONE
// Write call — concurrent emitters can neither tear a line nor misnumber
// the [done/total] sequence.
type ProgressSink struct {
	mu          sync.Mutex
	w           io.Writer
	buf         []byte
	total       int64
	done        int64
	rewriteSpan int64 // span ID of the current rewrite phase
}

// NewProgressSink writes the ticker to w.
func NewProgressSink(w io.Writer) *ProgressSink { return &ProgressSink{w: w} }

func (s *ProgressSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	switch e.Ev {
	case EvSpanStart:
		if e.Name == "rewrite" {
			s.total = e.V["bits"]
			s.done = 0
			s.rewriteSpan = e.Span
			s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] rewrite: %d bits in %d threads\n",
				e.TS, e.V["bits"], e.V["threads"])
			break
		}
		// Per-cone child spans under rewrite would double the ticker volume;
		// the bit_finish lines already cover them.
		if s.rewriteSpan != 0 && e.Parent == s.rewriteSpan {
			return
		}
		s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] %s...\n", e.TS, e.Name)
	case EvSpanEnd:
		if s.rewriteSpan != 0 && e.Parent == s.rewriteSpan {
			return
		}
		s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] %s done in %v\n",
			e.TS, e.Name, time.Duration(e.V["dur_ns"]).Round(time.Microsecond))
	case EvBitFinish:
		s.done++
		s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] [%3d/%3d] %s: %d subst, peak %d terms, %d cancelled, %v\n",
			e.TS, s.done, s.total, e.Name, e.V["subst"], e.V["peak"], e.V["cancelled"],
			time.Duration(e.V["dur_ns"]).Round(time.Microsecond))
	case EvConeAnomaly:
		s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] ANOMALY %s: peak %d terms is %d%% of the no-cancellation bound %d (healthy median %d%%)\n",
			e.TS, e.Name, e.V["peak"], e.V["ratio_pct"], e.V["predicted"], e.V["median_pct"])
	case EvHeap:
		s.buf = fmt.Appendf(s.buf, "[obs %8.3fs] heap %s (watermark %s)\n",
			e.TS, humanBytes(e.V["heap_bytes"]), humanBytes(e.V["watermark"]))
	default:
		return
	}
	s.w.Write(s.buf) //nolint:errcheck — best-effort ticker output
}

// Flush is a no-op (every line is written eagerly).
func (s *ProgressSink) Flush() error { return nil }

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/float64(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// MemorySink captures events in memory — the test hook, and the snapshot
// source for callers that want the event stream without I/O.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Flush is a no-op.
func (s *MemorySink) Flush() error { return nil }

// Events returns a copy of everything captured so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// ByType returns the captured events of one type, in order.
func (s *MemorySink) ByType(ev string) []Event {
	var out []Event
	for _, e := range s.Events() {
		if e.Ev == ev {
			out = append(out, e)
		}
	}
	return out
}
