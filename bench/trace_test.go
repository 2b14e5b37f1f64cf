package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Self time is duration minus the part of the interval covered by direct
// children: overlapping children count once, a child sticking out of its
// parent is clipped, grandchildren do not count against the grandparent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "a", StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, Name: "b", StartUs: 30, EndUs: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartUs: 90, EndUs: 120}, // sticks out by 20
		{ID: 5, Parent: 2, Name: "leaf", StartUs: 15, EndUs: 20},
		{ID: 6, Parent: 0, Name: "alone", StartUs: 200, EndUs: 250},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans)["root"]; got != 0.04 {
		t.Errorf("selfByName(root) = %v ms, want 0.04", got)
	}
}

func TestTracerRecordsParentsAndSuppression(t *testing.T) {
	var none *tracer
	if id := none.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.end(0)
	none.count("n", 1)

	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	tr.end(child)
	hidden := tr.begin("hidden", untraced)
	if hidden != untraced || tr.begin("deeper", hidden) != untraced {
		t.Error("an untraced parent must suppress its whole subtree")
	}
	tr.end(hidden)
	tr.end(root)
	other := tr.begin("other", 0)
	tr.end(other)
	tr.count("widgets", 3)

	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != root || tr.spans[1].Trace != tr.spans[0].Trace {
		t.Errorf("child span %+v does not hang off root %+v", tr.spans[1], tr.spans[0])
	}
	if tr.spans[2].Trace == tr.spans[0].Trace {
		t.Error("a second root must start a new trace")
	}
	if tr.spansNamed("child") != 1 {
		t.Error("durations did not find the child span")
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path, "w", provenance{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 3 || tf.Counts["widgets"] != 3 || tf.Provenance.Seed != 7 {
		t.Errorf("trace file lost data: %+v", tf)
	}
}

// spansNamed returns how many spans carry the given name.
func (t *tracer) spansNamed(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
