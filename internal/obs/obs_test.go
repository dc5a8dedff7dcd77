package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestGaugeWatermark(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(10) // 15, watermark 15
	g.Add(-12)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if got := g.Max(); got != 15 {
		t.Fatalf("Max = %d, want 15", got)
	}
	g.Set(7)
	if g.Value() != 7 || g.Max() != 15 {
		t.Fatalf("after Set(7): value %d max %d, want 7 / 15", g.Value(), g.Max())
	}
	g.Set(100)
	if got := g.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 106 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	// 1 → bucket bound 1; 2,3 → bound 3; 100 → bound 127.
	want := map[int64]int64{1: 1, 3: 2, 127: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets %v, want %v", s.Buckets, want)
	}
	for bound, n := range want {
		if s.Buckets[bound] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", bound, s.Buckets[bound], n, s.Buckets)
		}
	}
}

func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("z") != r.Histogram("z") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("x").Add(3)
	r.Gauge("y").Set(9)
	r.Histogram("z").Observe(4)
	s := r.Snapshot()
	if s.Counters["x"] != 3 || s.Gauges["y"] != 9 || s.GaugeMaxes["y"] != 9 || s.Histograms["z"].Count != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("Names = %v", got)
	}
}

// TestNilSafety: the uninstrumented pipeline holds nil recorders and nil
// metric handles everywhere; every method must be a safe no-op.
func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rec.Emit(EvHeap, "", nil)
	rec.BitStart(0, "z0")
	rec.BitFinish(BitStats{})
	rec.SampleHeap()
	rec.AttachSink(NewMemorySink())
	rec.StartHeapSampler(time.Millisecond)()
	if rec.Elapsed() != 0 || rec.Spans() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	sp := rec.StartSpan("phase", nil)
	if sp != nil {
		t.Fatal("nil recorder returned non-nil span")
	}
	if sp.End() != 0 {
		t.Fatal("nil span End != 0")
	}
	if sp.EndWith(map[string]int64{"x": 1}) != 0 {
		t.Fatal("nil span EndWith != 0")
	}
	if c := sp.Child("sub", nil); c != nil {
		t.Fatal("nil span Child != nil")
	}
	sp.SetAttr("k", 1)
	sp.SetStatus("budget")
	rec.EmitJob("j1", "job_start", "j1", nil)
	if jr := rec.JobRecorder("j1"); jr != nil {
		t.Fatal("nil recorder JobRecorder != nil")
	}
	if rec.Journal() != nil {
		t.Fatal("nil recorder Journal != nil")
	}
	rec.EnableConeAnomalies(map[int]int64{0: 100}, AnomalyConfig{})
	if rec.TraceTree() != nil {
		t.Fatal("nil recorder TraceTree != nil")
	}
	var j *Journal
	j.Emit(Event{})
	if j.LastSeq() != 0 || j.OldestSeq() != 0 || j.Subscribers() != 0 {
		t.Fatal("nil journal leaked state")
	}
	if evs, trunc := j.ReplaySince(0); evs != nil || trunc {
		t.Fatal("nil journal replayed events")
	}
	if j.Subscribe(0) != nil {
		t.Fatal("nil journal Subscribe != nil")
	}
	var sub *Subscription
	sub.Cancel()

	reg := rec.Metrics()
	c := reg.Counter("c")
	c.Inc()
	c.Add(5)
	g := reg.Gauge("g")
	g.Set(1)
	g.Add(-1)
	h := reg.Histogram("h")
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metric handles recorded values")
	}
	if s := reg.Snapshot(); s.Names() != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	if s := rec.Snapshot(); s.Names() != nil {
		t.Fatal("nil recorder snapshot not empty")
	}
}

func TestRecorderSpans(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	sp := rec.StartSpan("parse", map[string]int64{"files": 1})
	if d := sp.End(); d < 0 {
		t.Fatalf("duration %v", d)
	}
	d := rec.StartSpan("cone-index", nil).End()

	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "parse" || spans[1].Name != "cone-index" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].Duration != d {
		t.Fatalf("recorded duration %v, End returned %v", spans[1].Duration, d)
	}

	starts := mem.ByType(EvSpanStart)
	ends := mem.ByType(EvSpanEnd)
	if len(starts) != 2 || starts[0].Name != "parse" || starts[0].V["files"] != 1 {
		t.Fatalf("span_start events %+v", starts)
	}
	if len(ends) != 2 || ends[1].V["dur_ns"] != int64(d) {
		t.Fatalf("span_end events %+v", ends)
	}
}

func TestBitEventsAndMetrics(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	rec.BitStart(3, "z3")
	rec.BitFinish(BitStats{
		Bit: 3, Name: "z3", ConeGates: 12, Substitutions: 10,
		PeakTerms: 40, FinalTerms: 4, Cancelled: 18, Duration: time.Millisecond,
	})

	if ev := mem.ByType(EvBitStart); len(ev) != 1 || ev[0].V["bit"] != 3 {
		t.Fatalf("bit_start %+v", ev)
	}
	fin := mem.ByType(EvBitFinish)
	if len(fin) != 1 {
		t.Fatalf("bit_finish %+v", fin)
	}
	v := fin[0].V
	if v["subst"] != 10 || v["peak"] != 40 || v["cancelled"] != 18 || v["final"] != 4 {
		t.Fatalf("payload %v", v)
	}

	s := rec.Snapshot()
	if s.Counters["bits_done"] != 1 {
		t.Fatalf("bits_done = %d", s.Counters["bits_done"])
	}
	if s.Histograms["peak_terms"].Max != 40 || s.Histograms["bit_dur_ns"].Count != 1 {
		t.Fatalf("histograms %+v", s.Histograms)
	}
}

func TestHeapSampler(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	stop := rec.StartHeapSampler(time.Hour) // only the final stop-sample fires
	stop()
	stop() // idempotent
	ev := mem.ByType(EvHeap)
	if len(ev) != 1 {
		t.Fatalf("heap events %d, want 1", len(ev))
	}
	if ev[0].V["heap_bytes"] <= 0 || ev[0].V["watermark"] < ev[0].V["heap_bytes"] {
		t.Fatalf("heap payload %v", ev[0].V)
	}
	if rec.Snapshot().GaugeMaxes["heap_bytes"] != ev[0].V["watermark"] {
		t.Fatal("gauge watermark does not match emitted watermark")
	}
}

func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	rec := NewRecorder(sink)
	rec.StartSpan("rewrite", map[string]int64{"bits": 2, "threads": 1}).End()
	rec.BitFinish(BitStats{Bit: 0, Name: "z0", PeakTerms: 5})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var evs []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Ev != EvSpanStart || evs[1].Ev != EvSpanEnd || evs[2].Ev != EvBitFinish {
		t.Fatalf("event order %+v", evs)
	}
	if evs[0].V["bits"] != 2 || evs[2].V["peak"] != 5 {
		t.Fatalf("payloads %+v", evs)
	}
}

func TestNDJSONSinkStickyError(t *testing.T) {
	sink := NewNDJSONSink(failWriter{})
	// Overflow the 4KB bufio buffer so the underlying write error surfaces.
	big := strings.Repeat("x", 8192)
	sink.Emit(Event{Ev: EvSpanStart, Name: big})
	sink.Emit(Event{Ev: EvSpanEnd, Name: big})
	if err := sink.Flush(); err == nil {
		t.Fatal("expected sticky write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &json.UnsupportedValueError{Str: "failWriter"}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewProgressSink(&buf)
	rec := NewRecorder(sink)
	rec.StartSpan("parse", nil).End()
	sp := rec.StartSpan("rewrite", map[string]int64{"bits": 4, "threads": 2})
	rec.BitFinish(BitStats{Bit: 0, Name: "z0", Substitutions: 9, PeakTerms: 21, Cancelled: 4})
	sp.End()
	rec.SampleHeap()

	out := buf.String()
	for _, want := range []string{
		"parse...",
		"parse done in",
		"rewrite: 4 bits in 2 threads",
		"[  1/  4] z0: 9 subst, peak 21 terms, 4 cancelled",
		"rewrite done in",
		"heap ",
		"watermark",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KB",
		3 << 20: "3.0 MB",
		5 << 30: "5.0 GB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestMemorySinkByType(t *testing.T) {
	mem := NewMemorySink()
	mem.Emit(Event{Ev: EvBitStart, Name: "a"})
	mem.Emit(Event{Ev: EvBitFinish, Name: "a"})
	mem.Emit(Event{Ev: EvBitStart, Name: "b"})
	if got := mem.ByType(EvBitStart); len(got) != 2 || got[1].Name != "b" {
		t.Fatalf("ByType %+v", got)
	}
	if got := len(mem.Events()); got != 3 {
		t.Fatalf("Events len %d", got)
	}
}

// TestConcurrency hammers a recorder from many goroutines — the worker-pool
// usage pattern — and relies on -race for the verdict.
func TestConcurrency(t *testing.T) {
	rec := NewRecorder(NewMemorySink())
	c := rec.Metrics().Counter("substitutions")
	g := rec.Metrics().Gauge("live_terms")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				rec.Metrics().Histogram("peak_terms").Observe(int64(i))
				if i%50 == 0 {
					rec.BitStart(w*1000+i, "z")
					rec.BitFinish(BitStats{Bit: w*1000 + i, Name: "z"})
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*200 {
		t.Fatalf("substitutions = %d, want %d", got, 8*200)
	}
	if g.Value() != 0 {
		t.Fatalf("live_terms = %d, want 0", g.Value())
	}
	if got := rec.Snapshot().Counters["bits_done"]; got != 8*4 {
		t.Fatalf("bits_done = %d, want %d", got, 8*4)
	}
}

// TestNDJSONBufferedUntilClose audits the flush contract: events sit in the
// sink's buffer — invisible to the underlying writer — until Recorder.Close
// drains them. An exit path that skips Close would lose every one of them.
func TestNDJSONBufferedUntilClose(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewNDJSONSink(&buf))
	rec.StartSpan("parse", nil).End()
	rec.BitFinish(BitStats{Bit: 0, Name: "z0"})

	if buf.Len() != 0 {
		// Not a failure of durability, but the premise of the audit: small
		// event streams must still be in the bufio buffer here.
		t.Fatalf("events reached the writer before Close (%d bytes) — buffer size changed?", buf.Len())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("after Close got %d records, want 3", lines)
	}
}

// TestRecorderCloseIdempotent covers the deferred-close-plus-explicit-close
// pattern the CLIs use: a second Close must not error or duplicate output.
func TestRecorderCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewNDJSONSink(&buf))
	rec.StartSpan("parse", nil).End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("second Close wrote %d extra bytes", buf.Len()-n)
	}
	var nilRec *Recorder
	if err := nilRec.Close(); err != nil {
		t.Fatal("nil recorder Close must be a no-op")
	}
}
