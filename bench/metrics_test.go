package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is the contract later changes are held to; the tables in
// metrics.go and workload.go are what the driver actually prints. They must
// say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and no larger than setup_s's", d.Name, d.Bound)
		}
	}
}

func TestCheckComplete(t *testing.T) {
	got := map[string]float64{}
	for _, d := range endToEnd {
		got[d.Name] = 1
	}
	if err := checkComplete(endToEnd, got); err != nil {
		t.Error(err)
	}
	got["stray"] = 1
	if checkComplete(endToEnd, got) == nil {
		t.Error("undeclared metric accepted")
	}
	delete(got, "stray")
	delete(got, "setup_s")
	if checkComplete(endToEnd, got) == nil {
		t.Error("missing metric accepted")
	}
}
