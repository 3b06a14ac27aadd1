package main

import (
	"testing"
)

// TestWorkloadsPrintEveryMetric runs every workload briefly, plain and
// traced; run fails if a declared metric is missing from the output.
// Correctness is not asserted here: on a loaded machine the shipped code's
// known defects can show in so short a run, and the benchmark reports them.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real clusters")
	}
	for _, w := range append(append([]workloadDef(nil), workloads...), heldBack...) {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 1, trace: trace, out: t.TempDir(), commit: "test"}
			if err := run(o); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
		}
	}
}
