package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables the command prints in step: same names, same units, same order.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", c.name, len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					c.name, i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command implements %d", len(b.Workloads), len(workloads))
	}
}

// TestResultLineShape checks the printed line carries exactly the
// contract's keys and every metric of the selected table.
func TestResultLineShape(t *testing.T) {
	rep := newReport()
	rep.attempted = 3
	for _, d := range endToEnd {
		rep.set(d.name, 1.5)
	}
	line, err := rep.resultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(endToEnd))
	}

	delete(rep.values, "run_s")
	if _, err := rep.resultLine(false); err == nil {
		t.Error("a missing end-to-end metric was not reported as an error")
	}
	traced, err := newReport().resultLine(true)
	if err != nil {
		t.Fatal(err)
	}
	var tracedLine struct{ Metrics map[string]metricValue }
	if err := json.Unmarshal(traced, &tracedLine); err != nil {
		t.Fatal(err)
	}
	if len(tracedLine.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics printed, want %d", len(tracedLine.Metrics), len(perLayer))
	}
}
