// Package obs is the zero-dependency telemetry layer of the extraction
// pipeline: hierarchical trace spans, a lock-cheap metrics registry, a
// bounded event journal with replay, and pluggable event sinks (NDJSON
// stream, live progress ticker, in-memory capture).
//
// The paper's entire cost story — Figure 4's per-bit runtime profile, the
// runtime and Mem columns of Tables I–IV — is about where time and memory go
// during backward rewriting. A *Recorder threaded through rewrite.Options /
// extract.Options surfaces those quantities live instead of post hoc:
//
//	rec := obs.NewRecorder(obs.NewProgressSink(os.Stderr))
//	stop := rec.StartHeapSampler(0)
//	ext, err := extract.IrreduciblePolynomial(n, extract.Options{Recorder: rec})
//	stop()
//	rec.Close()
//
// A nil *Recorder is fully usable: every method no-ops, and the instrumented
// hot paths hold pre-fetched nil metric handles whose methods also no-op, so
// the uninstrumented pipeline pays a single predictable branch per event
// site (< 2% on the extraction benchmarks).
//
// Event schema (one JSON object per line in the NDJSON sink):
//
//	{"ts":0.0012,"ev":"span_start","name":"rewrite","span":3,"parent":1,
//	    "v":{"bits":16,"threads":8}}
//	{"ts":0.0013,"ev":"bit_start","name":"z3","v":{"bit":3}}
//	{"ts":0.0051,"ev":"bit_finish","name":"z3","v":{"bit":3,"cone":120,
//	    "subst":116,"peak":257,"final":31,"cancelled":180,"dur_ns":3812345}}
//	{"ts":0.0920,"ev":"span_end","name":"rewrite","span":3,"parent":1,
//	    "v":{"dur_ns":91834021}}
//	{"ts":0.1001,"ev":"heap","v":{"heap_bytes":8437760,"watermark":9125888}}
//
// ts is seconds since the recorder was created. span/parent are span IDs:
// spans form a tree (extraction → parse / preflight / rewrite → per-cone
// children → extract / golden-model / verify), rendered by TraceTree.
// Events flowing through a Journal additionally carry a monotonic seq, the
// resume cursor for SSE streaming; events from a per-job recorder (see
// JobRecorder) carry the job ID in job.
//
// Well-known span names, in pipeline order: extraction, parse, preflight,
// rewrite (with per-cone children named after the output bit), extract,
// golden-model, verify, plus consensus / localize on the fault-tolerant path
// and opt.simplify / opt.balance-xor / opt.techmap / opt.sweep inside the
// synthesis flow. Preflight and rewrite each hold a cone-index child: the
// wall time spent getting the netlist's cone index (rewrite's is a memo hit
// whenever preflight ran).
// Well-known metrics: substitutions, cancellations (mod-2 eliminations),
// live_terms (gauge; watermark = peak resident terms), workers_busy (gauge),
// bits_done, heap_bytes (gauge; watermark = heap high-water
// from runtime.ReadMemStats), the peak_terms / bit_dur_ns histograms, and
// the resource-governance counters cone_retries (budget aborts re-attempted
// under the alternative substitution order) and cone_aborts (cones ended
// without an expression). Each abort additionally emits a cone_abort event
// whose name is the abort status (budget / timeout / panic / cancelled /
// error) and whose payload carries bit, cone_gates, substitutions and
// peak_terms at the moment the governor stopped the cone. When the anomaly
// stage is armed (EnableConeAnomalies), cones whose actual peak approaches
// or exceeds the statically predicted no-cancellation bound emit
// cone_anomaly events and bump the cone_anomalies counter.
//
// The sharded scheduler (internal/shard) adds the lease lifecycle events
// lease_grant / lease_expire / lease_steal / cone_leased / shard_result
// (see the Ev constants) and the metrics leases_granted, leases_renewed,
// leases_expired, leases_stolen, leases_active (gauge),
// shard_results_accepted, shard_results_fenced, shard_results_duplicate,
// shard_cones_requeued, shard_cones_cached and shard_cones_pending
// (gauge). The gfred spool adds spool_corrupt, counting quarantined
// entries skipped during restart replay.
package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one telemetry record. Numeric payload lives in V so the schema
// stays uniform across event types; absent keys mean "not applicable".
type Event struct {
	// Seq is the journal sequence number: assigned when the event passes
	// through a Journal sink, 0 before that. Strictly monotonic per journal;
	// the Last-Event-ID cursor of the SSE stream.
	Seq uint64 `json:"seq,omitempty"`
	// TS is seconds since the recorder started.
	TS float64 `json:"ts"`
	// Ev is the event type: span_start, span_end, bit_start, bit_finish,
	// heap, cone_abort, cone_anomaly, or a service event (job_*, drain_*).
	Ev string `json:"ev"`
	// Name is the span name, output-bit name, or metric name.
	Name string `json:"name,omitempty"`
	// Job tags events emitted on behalf of one service job (see JobRecorder);
	// empty for process-wide telemetry.
	Job string `json:"job,omitempty"`
	// Span and Parent are trace-span IDs on span_start/span_end events,
	// linking each span into the trace tree. 0 means "no span" / root.
	Span   int64 `json:"span,omitempty"`
	Parent int64 `json:"parent,omitempty"`
	// V carries the numeric payload (counts, durations in ns, byte sizes).
	V map[string]int64 `json:"v,omitempty"`
}

// Event types.
const (
	EvSpanStart   = "span_start"
	EvSpanEnd     = "span_end"
	EvBitStart    = "bit_start"
	EvBitFinish   = "bit_finish"
	EvHeap        = "heap"
	EvConeAnomaly = "cone_anomaly"

	// Lease lifecycle events of the sharded scheduler (internal/shard).
	// Name carries the lease ID; payloads carry epoch plus cone counts
	// (lease_grant/lease_expire/lease_steal) or the per-cone bit
	// (cone_leased, which drives the gftop lease heat grid). shard_result
	// summarizes one submission: accepted/duplicate/fenced/failed counts.
	EvLeaseGrant  = "lease_grant"
	EvLeaseExpire = "lease_expire"
	EvLeaseSteal  = "lease_steal"
	EvConeLeased  = "cone_leased"
	EvShardResult = "shard_result"
)

// Sink consumes telemetry events. Emit must be safe for concurrent use;
// the worker pool calls it from every rewriting goroutine.
//
// The flush contract: a sink may buffer (NDJSONSink does, behind a
// bufio.Writer), so emitted events are NOT durable until Flush returns.
// Recorder.Close flushes every sink exactly for this reason — a process
// that exits without calling it silently truncates its telemetry stream.
// Both gfre and gfred therefore defer Recorder.Close at the top of run(),
// before any code that can fail, so records written ahead of an error,
// a signal, or a resource abort still reach disk.
type Sink interface {
	Emit(Event)
	// Flush drains any buffered events and reports the first write or
	// encoding error. It must be idempotent: Recorder.Close may run more
	// than once (deferred close plus an explicit one).
	Flush() error
}

// SpanRecord is one completed phase with its wall-clock cost — the
// phase-timing breakdown exported into JSON reports. ID/Parent link the
// record into the trace tree (see TraceTree); Attrs carries whatever the
// span closed with (per-cone peak terms, retries, ...), Status the budget
// verdict of governed cones ("" = ok).
type SpanRecord struct {
	Name     string           `json:"name"`
	Start    time.Duration    `json:"start_ns"` // offset from recorder start
	Duration time.Duration    `json:"dur_ns"`
	ID       int64            `json:"id,omitempty"`
	Parent   int64            `json:"parent,omitempty"`
	Status   string           `json:"status,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
}

// Recorder is the telemetry hub: it owns the metrics registry, fans events
// out to sinks, and remembers completed spans. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Recorder struct {
	start    time.Time
	registry *Registry
	job      string        // stamped into every event (JobRecorder children)
	ids      *atomic.Int64 // span-ID allocator, shared across JobRecorder children

	// emitMu serializes sink delivery, and with it the AttachSink back-fill:
	// a newly attached sink sees every journaled event exactly once, in
	// order, because no Emit can interleave with the replay.
	emitMu  sync.Mutex
	sinks   []Sink
	journal *Journal // first Journal among sinks, if any (back-fill source)

	mu    sync.Mutex
	spans []SpanRecord
	open  []*Span // stack of StartSpan-opened phase spans (nesting context)
	anom  *anomalyDetector
}

// NewRecorder returns a recorder fanning out to the given sinks (none is
// valid: spans and metrics are still captured for Spans/Snapshot). If one of
// the sinks is a *Journal it becomes the recorder's replay buffer, backing
// AttachSink's tail back-fill.
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{
		start:    time.Now(),
		registry: NewRegistry(),
		ids:      new(atomic.Int64),
		sinks:    sinks,
	}
	for _, s := range sinks {
		if j, ok := s.(*Journal); ok {
			r.journal = j
			break
		}
	}
	return r
}

// AttachSink adds a sink. When the recorder has a Journal among its sinks,
// the journal's buffered tail is replayed into the new sink first, so late
// subscribers (an SSE stream, a dashboard) observe the same prefix of the
// event stream as everyone else — in order, with no gap and no overlap.
// Without a journal, events emitted before AttachSink are not replayed.
func (r *Recorder) AttachSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	if r.journal != nil {
		tail, _ := r.journal.ReplaySince(0)
		for _, e := range tail {
			s.Emit(e)
		}
	}
	if j, ok := s.(*Journal); ok && r.journal == nil {
		r.journal = j
	}
	r.sinks = append(r.sinks, s)
}

// Journal returns the recorder's replay buffer: the first *Journal among
// its sinks, or nil.
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	return r.journal
}

// JobRecorder returns a child recorder that stamps every event with the job
// ID. The child shares the parent's metrics registry, sink set (as of this
// call), span-ID allocator and time base, but keeps its own span list and
// nesting stack, so concurrent jobs build independent trace trees over one
// journal. A nil parent yields a nil (fully usable) child.
func (r *Recorder) JobRecorder(job string) *Recorder {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	sinks := append([]Sink(nil), r.sinks...)
	j := r.journal
	r.emitMu.Unlock()
	return &Recorder{
		start:    r.start,
		registry: r.registry,
		job:      job,
		ids:      r.ids,
		sinks:    sinks,
		journal:  j,
	}
}

// Metrics returns the recorder's registry. On a nil recorder it returns a
// nil registry whose Counter/Gauge/Histogram methods return no-op handles.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.registry
}

// Snapshot copies the current value of every metric.
func (r *Recorder) Snapshot() Snapshot { return r.Metrics().Snapshot() }

// Elapsed is the time since the recorder was created.
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Emit forwards an event (with its timestamp filled in) to every sink.
func (r *Recorder) Emit(ev string, name string, v map[string]int64) {
	if r == nil {
		return
	}
	r.emitEvent(Event{Ev: ev, Name: name, V: v})
}

// EmitJob is Emit with an explicit job tag, for process-wide recorders
// reporting on behalf of a job (queue lifecycle events).
func (r *Recorder) EmitJob(job, ev, name string, v map[string]int64) {
	if r == nil {
		return
	}
	r.emitEvent(Event{Ev: ev, Name: name, Job: job, V: v})
}

// emitEvent stamps the timestamp and job tag and delivers to every sink
// under emitMu (see AttachSink for why delivery is serialized).
func (r *Recorder) emitEvent(e Event) {
	e.TS = time.Since(r.start).Seconds()
	if e.Job == "" {
		e.Job = r.job
	}
	r.emitMu.Lock()
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.emitMu.Unlock()
}

// Span is an in-flight trace span; obtain with StartSpan or Child, finish
// with End/EndWith. A nil Span (from a nil Recorder) is valid and every
// method is a no-op. Spans carry per-span attributes (terms-peak, retries,
// budget verdict, ...) into their SpanRecord and span_end event.
type Span struct {
	r      *Recorder
	name   string
	start  time.Time
	id     int64
	parent int64

	mu     sync.Mutex
	attrs  map[string]int64
	status string
	ended  bool
}

// newSpan allocates a span with a fresh ID under the given parent.
func (r *Recorder) newSpan(name string, parent int64) *Span {
	return &Span{r: r, name: name, start: time.Now(), id: r.ids.Add(1), parent: parent}
}

// StartSpan opens a phase span and emits a span_start event. The extra
// payload v (may be nil) is attached to the start event. Phase spans nest
// lexically: a StartSpan issued while another phase span is open becomes its
// child (the stack discipline matches the pipeline's sequential phases). Use
// Span.Child for concurrent children (per-cone spans under rewrite).
func (r *Recorder) StartSpan(name string, v map[string]int64) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	parent := int64(0)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1].id
	}
	s := r.newSpan(name, parent)
	r.open = append(r.open, s)
	r.mu.Unlock()
	r.emitEvent(Event{Ev: EvSpanStart, Name: name, Span: s.id, Parent: s.parent, V: v})
	return s
}

// Child opens a concurrent child span under s. Unlike StartSpan it does not
// enter the nesting stack, so workers can open per-cone children of the
// rewrite span from any goroutine without racing the phase structure.
func (s *Span) Child(name string, v map[string]int64) *Span {
	if s == nil {
		return nil
	}
	c := s.r.newSpan(name, s.id)
	s.r.emitEvent(Event{Ev: EvSpanStart, Name: name, Span: c.id, Parent: c.parent, V: v})
	return c
}

// SetAttr attaches a key to the span's attributes, surfaced in its
// SpanRecord and span_end event.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// SetStatus records the span's outcome (a cone's budget verdict: ok,
// budget, timeout, panic, cancelled, error). Empty means ok.
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status = status
	s.mu.Unlock()
}

// End closes the span, records it for Spans(), emits a span_end event, and
// returns the span's duration. Idempotent: only the first End counts.
func (s *Span) End() time.Duration { return s.EndWith(nil) }

// EndWith is End with final attributes merged in (per-cone peak terms,
// substitution count, retries, ...). The attributes ride on both the
// SpanRecord and the span_end event's payload next to dur_ns.
func (s *Span) EndWith(attrs map[string]int64) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	for k, v := range attrs {
		if s.attrs == nil {
			s.attrs = make(map[string]int64, len(attrs))
		}
		s.attrs[k] = v
	}
	final := s.attrs
	status := s.status
	s.mu.Unlock()

	d := time.Since(s.start)
	s.r.popOpen(s)
	s.r.recordSpan(SpanRecord{
		Name: s.name, Start: s.start.Sub(s.r.start), Duration: d,
		ID: s.id, Parent: s.parent, Status: status, Attrs: final,
	})
	v := map[string]int64{"dur_ns": int64(d)}
	for k, av := range final {
		v[k] = av
	}
	s.r.emitEvent(Event{Ev: EvSpanEnd, Name: s.name, Span: s.id, Parent: s.parent, V: v})
	return d
}

// popOpen removes s from the phase-nesting stack (top-down search: phase
// spans close in LIFO order; Child spans were never pushed).
func (r *Recorder) popOpen(s *Span) {
	r.mu.Lock()
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == s {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

func (r *Recorder) recordSpan(sr SpanRecord) {
	r.mu.Lock()
	r.spans = append(r.spans, sr)
	r.mu.Unlock()
}

// Spans returns every completed span in completion order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// BitStart announces that an output bit began rewriting.
func (r *Recorder) BitStart(bit int, name string) {
	if r == nil {
		return
	}
	r.Emit(EvBitStart, name, map[string]int64{"bit": int64(bit)})
}

// BitStats is the payload of a bit_finish event.
type BitStats struct {
	Bit           int
	Name          string
	ConeGates     int
	Substitutions int
	PeakTerms     int
	FinalTerms    int
	Cancelled     int
	Duration      time.Duration
}

// BitFinish announces that an output bit completed, with its cost counters.
// When the anomaly stage is armed (EnableConeAnomalies) the bit's actual
// peak is compared against its predicted cost here.
func (r *Recorder) BitFinish(bs BitStats) {
	if r == nil {
		return
	}
	r.Metrics().Counter("bits_done").Inc()
	r.Metrics().Histogram("peak_terms").Observe(int64(bs.PeakTerms))
	r.Metrics().Histogram("bit_dur_ns").Observe(int64(bs.Duration))
	r.Emit(EvBitFinish, bs.Name, map[string]int64{
		"bit":       int64(bs.Bit),
		"cone":      int64(bs.ConeGates),
		"subst":     int64(bs.Substitutions),
		"peak":      int64(bs.PeakTerms),
		"final":     int64(bs.FinalTerms),
		"cancelled": int64(bs.Cancelled),
		"dur_ns":    int64(bs.Duration),
	})
	r.checkConeAnomaly(bs)
}

// SampleHeap reads runtime.ReadMemStats once into the heap_bytes gauge
// (its watermark is the run's heap high-water mark) and emits a heap event.
func (r *Recorder) SampleHeap() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := r.Metrics().Gauge("heap_bytes")
	g.Set(int64(ms.HeapAlloc))
	r.Emit(EvHeap, "", map[string]int64{
		"heap_bytes": int64(ms.HeapAlloc),
		"watermark":  g.Max(),
	})
}

// StartHeapSampler samples the heap every interval (default 250ms) on a
// background goroutine until the returned stop function is called. Note
// runtime.ReadMemStats briefly stops the world, so intervals far below the
// default will themselves perturb the measurement.
func (r *Recorder) StartHeapSampler(interval time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.SampleHeap()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			r.SampleHeap() // final sample so short runs record at least one
		})
	}
}

// Close flushes every sink (first flush error wins). It is idempotent and
// nil-safe, and it is the durability point for buffered sinks: defer it on
// every exit path (see the Sink flush contract).
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.emitMu.Lock()
	sinks := append([]Sink(nil), r.sinks...)
	r.emitMu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
