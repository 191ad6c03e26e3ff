package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's output contract; BENCHMARK.json lists the same names
// and units (metrics_test.go keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the engines sees. Every workload reports all
// of them from untraced operations; an "operation" is one algorithm run
// through a public entry point (a RunMemory call, or a job
// submitted to the scheduler and its result fetched).
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median set-up: preprocessing, or Registry.Add plus the first Disk() build
	{"run_s", "s"},              // median execution of one operation, set-up and queueing excluded
	{"jobs_per_s", "1/s"},       // operations completed per second of measured wall time
	{"job_p50_s", "s"},          // median latency from call or Submit to the fetched result
	{"peak_rss_bytes", "bytes"}, // resident high-water mark before the correctness check
}

// perLayer is read from the traced run. A layer that does no work in a
// workload reports 0 there (for example storage.* on pagerank-mem).
var perLayer = []metricDef{
	{"memengine.scatter_s", "s"},
	{"memengine.shuffle_s", "s"},
	{"memengine.gather_s", "s"},
	{"memengine.unattributed_s", "s"},
	{"memengine.iterations", "count"},
	{"memengine.edges_streamed", "count"},
	{"memengine.stream_fraction", "fraction"},
	{"diskengine.partitions", "count"},
	{"diskengine.iterations", "count"},
	{"diskengine.edges_streamed", "count"},
	{"diskengine.edges_skipped", "count"},
	{"core.skipped_fraction", "fraction"},
	{"core.updates_sent", "count"},
	{"core.updates_combined", "count"},
	{"core.update_bytes", "bytes"},
	{"core.transport_batches", "count"},
	{"core.cross_fraction", "fraction"},
	{"core.combine_add_per_s", "1/s"},
	{"streambuf.shuffle_gbps", "GB/s"},
	{"streambuf.fold_gbps", "GB/s"},
	{"tilecodec.decode_gbps", "GB/s"},
	{"tilecodec.compressed_ratio", "fraction"},
	{"storage.read_bytes", "bytes"},
	{"storage.read_ops", "count"},
	{"storage.read_s", "s"},
	{"storage.read_gbps", "GB/s"},
	{"storage.write_bytes", "bytes"},
	{"storage.write_s", "s"},
	{"storage.seq_read_gbps", "GB/s"},
	{"storage.stream_fraction", "fraction"},
	{"partition2ps.assign_s", "s"},
	{"dataset.resident_bytes", "bytes"},
	{"jobs.queue_wait_p50_s", "s"},
	{"jobs.run_p50_s", "s"},
	{"jobs.batches", "count"},
	{"jobs.mean_batch_size", "count"},
	{"jobs.edges_shared", "count"},
	{"jobs.edges_streamed_per_job", "count"},
	{"jobs.cache_hits", "count"},
	{"membench.seq_read_gbps", "GB/s"},
	{"obs.trace_overhead_fraction", "fraction"},
}

// report is one run's outcome: operation counts, the correctness verdict
// and the metric values by name.
type report struct {
	attempted, failed int
	// wrong counts the failed operations whose result the oracle
	// rejected; any makes the run incorrect.
	wrong  int
	values map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final output line: every metric of the selected
// table, in the shape {"correct", "attempted", "failed", "metrics"}. Layer
// metrics a workload never set are reported as 0, and so are end-to-end
// metrics when operations failed; otherwise a missing or non-finite metric
// is a bug in the benchmark and an error.
func (r *report) resultLine(trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace && r.failed == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, metrics})
}
