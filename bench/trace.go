package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the span that caused it (0 for a root); spans of one request
// share Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// StartUs/EndUs are microseconds since the tracer was created.
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) durUs() float64 { return s.EndUs - s.StartUs }

// tracer keeps spans and counts in memory until write. A nil *tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

// untraced as a parent suppresses a whole subtree. The traced pass uses it
// for every other segment, so that the traced and untraced halves of one
// window can be compared.
const untraced = -1

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id. A root span (parent 0) starts a
// new trace; children inherit their parent's. Nothing is recorded, and the
// parent is handed back, on a nil tracer or under an untraced parent.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || parent < 0 {
		return parent
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartUs: now, EndUs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id <= 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id-1].EndUs = now
	t.mu.Unlock()
}

// count records a counter taken at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its direct children (overlapping children are merged
// first, and children are clipped to the parent's interval). Microseconds.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, edge := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, edge), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.durUs() - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID] / 1e3
	}
	return out
}

// traceFile is the on-disk form: everything needed to re-derive the
// per-layer numbers, plus who measured it.
type traceFile struct {
	Workload   string             `json:"workload"`
	Provenance provenance         `json:"provenance"`
	Counts     map[string]float64 `json:"counts"`
	SelfMs     map[string]float64 `json:"self_ms_by_name"`
	Spans      []span             `json:"spans"`
}

// write dumps the spans kept in memory to path.
func (t *tracer) write(path, workload string, prov provenance) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Provenance: prov, Counts: t.counts,
		SelfMs: selfByName(t.spans), Spans: t.spans}
	t.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
