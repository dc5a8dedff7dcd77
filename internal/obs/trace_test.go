package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanHierarchy: lexical StartSpan nesting plus concurrent Child spans
// reconstruct into one tree.
func TestSpanHierarchy(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)

	root := rec.StartSpan("extraction", nil)
	phase := rec.StartSpan("rewrite", map[string]int64{"bits": 2})

	var wg sync.WaitGroup
	for _, name := range []string{"z0", "z1"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			c := phase.Child(name, nil)
			c.SetAttr("peak_terms", 7)
			c.SetStatus("ok")
			c.EndWith(map[string]int64{"subst": 3})
		}(name)
	}
	wg.Wait()
	phase.End()
	verify := rec.StartSpan("verify", nil)
	verify.End()
	root.End()

	roots := rec.TraceTree()
	if len(roots) != 1 || roots[0].Name != "extraction" {
		t.Fatalf("roots: %+v", roots)
	}
	var names []string
	for _, c := range roots[0].Children {
		names = append(names, c.Name)
	}
	if len(names) != 2 || names[0] != "rewrite" || names[1] != "verify" {
		t.Fatalf("extraction children: %v", names)
	}
	rw := roots[0].Children[0]
	if len(rw.Children) != 2 {
		t.Fatalf("rewrite children: %+v", rw.Children)
	}
	for _, cone := range rw.Children {
		if cone.Attrs["peak_terms"] != 7 || cone.Attrs["subst"] != 3 {
			t.Fatalf("cone %s attrs: %+v", cone.Name, cone.Attrs)
		}
		if cone.Status != "ok" {
			t.Fatalf("cone %s status: %q", cone.Name, cone.Status)
		}
	}

	// The span events carry the same linkage for streaming consumers.
	starts := mem.ByType(EvSpanStart)
	byName := map[string]Event{}
	for _, e := range starts {
		byName[e.Name] = e
	}
	if byName["rewrite"].Parent != byName["extraction"].Span {
		t.Fatal("rewrite span_start not parented under extraction")
	}
	if byName["z0"].Parent != byName["rewrite"].Span {
		t.Fatal("cone span_start not parented under rewrite")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	rec := NewRecorder()
	s := rec.StartSpan("p", nil)
	if s.End() == 0 {
		// zero duration is possible but the record must exist either way
	}
	if d := s.End(); d != 0 {
		t.Fatalf("second End returned %v, want 0", d)
	}
	if got := len(rec.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

// TestSpanEndWithAttrsOnEvent: EndWith attributes ride on the span_end
// event payload next to dur_ns.
func TestSpanEndWithAttrsOnEvent(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	s := rec.StartSpan("cone", nil)
	s.EndWith(map[string]int64{"peak_terms": 42, "retries": 1})
	ends := mem.ByType(EvSpanEnd)
	if len(ends) != 1 {
		t.Fatalf("span_end events: %d", len(ends))
	}
	e := ends[0]
	if e.V["peak_terms"] != 42 || e.V["retries"] != 1 {
		t.Fatalf("span_end payload: %+v", e.V)
	}
	if _, ok := e.V["dur_ns"]; !ok {
		t.Fatal("span_end lost dur_ns")
	}
}

func TestWriteTraceTreeRendering(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan("extraction", nil)
	c := root.Child("z0", nil)
	c.SetStatus("budget")
	c.EndWith(map[string]int64{"peak_terms": 9})
	root.End()

	var sb strings.Builder
	WriteTraceTree(&sb, rec.TraceTree())
	out := sb.String()
	if !strings.Contains(out, "extraction") {
		t.Fatalf("render lacks root:\n%s", out)
	}
	if !strings.Contains(out, "└─ z0 [budget]") {
		t.Fatalf("render lacks child with status:\n%s", out)
	}
	if !strings.Contains(out, "peak_terms=9") {
		t.Fatalf("render lacks attrs:\n%s", out)
	}
}

// TestBuildTraceTreeLegacyRecords: SpanRecords without IDs (pre-trace JSON
// reports) still render, as roots.
func TestBuildTraceTreeLegacyRecords(t *testing.T) {
	roots := BuildTraceTree([]SpanRecord{
		{Name: "parse", Duration: time.Millisecond},
		{Name: "rewrite", Duration: time.Millisecond},
	})
	if len(roots) != 2 {
		t.Fatalf("legacy records produced %d roots, want 2", len(roots))
	}
}
