package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the metrics the program prints must name the same
// workloads and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), program has %q", i, w.Name, w.Why, specs[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v, program has %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}
