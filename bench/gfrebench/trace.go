package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a phase of the benchmark, a
// child process, or a call into one of gfre's layers. Spans of one design
// carry its name; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Design string `json:"design,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	// SelfNS is the duration minus the part of it that child spans cover;
	// filled in when the trace is written.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run stays free of tracing work.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) start(parent int, name, design string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Design: design, Start: time.Now().UnixNano()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now().UnixNano()
}

// graft adds spans recorded by a traced child process, re-numbered, with the
// child's roots placed under parent.
func (t *tracer) graft(parent int, child []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// snapshot returns the spans with their self times filled in.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fillSelfTimes(out)
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string, workload string) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.snapshot()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fillSelfTimes sets SelfNS of every span (IDs are 1-based positions): its
// duration minus the union of its children's intervals, clipped to it.
// Children of one parent may overlap (concurrent service jobs), hence the
// union rather than a sum.
func fillSelfTimes(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.SelfNS = p.End - p.Start - covered
	}
}
