package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the program must agree with.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram requires the workload and metric lists in
// BENCHMARK.json to equal the ones the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("workloads:\n json    %+v\n program %+v", spec.Workloads, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", spec.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestEveryWorkloadIsRunnable keeps the dispatch in run() in step with the
// declared workloads.
func TestEveryWorkloadIsRunnable(t *testing.T) {
	for _, w := range append(append([]workloadDef(nil), workloads...), heldBack...) {
		switch w.Name {
		case "ccs-read", "lease-open", "mixed", "ccs-sim", "campaign-300":
		default:
			t.Errorf("workload %s has no runner", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
