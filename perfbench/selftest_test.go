package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSelfTest runs every workload's code path at the small scale and
// requires each property check to reject its corrupted outputs.
func TestSelfTest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if err := selfTest(w, 42); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark has %v", names, want)
	}
	var layers []def
	for _, d := range perLayer {
		layers = append(layers, def{d.name, d.unit, d.better})
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer:\n%v\n%v", b.PerLayer, layers)
	}
	endToEnd := []def{
		{"wall_s", "s", "lower"}, {"cpu_s", "s", "lower"}, {"refs_per_s", "1/s", "higher"},
		{"max_rss_mb", "MB", "lower"}, {"setup_s", "s", "lower"},
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
}
