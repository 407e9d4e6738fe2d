package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclarationMatchesBenchmarkJSON keeps the repository's
// BENCHMARK.json and this package's metric declarations in step.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		Layer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.E2E) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(spec.E2E), len(e2eMetrics))
	}
	for i, m := range spec.E2E {
		if got := (metricSpec{m.Name, m.Unit, m.Better}); got != e2eMetrics[i] {
			t.Errorf("end_to_end[%d] = %+v, code declares %+v", i, got, e2eMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Layer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(spec.Layer), len(layerMetrics))
	}
	for i, m := range spec.Layer {
		if m != layerMetrics[i] {
			t.Errorf("per_layer[%d] = %+v, code declares %+v", i, m, layerMetrics[i])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
	}
}
