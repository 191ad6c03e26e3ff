package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	xstream "repro"
	"repro/internal/core"
	"repro/internal/refalgo"
	"repro/perfbench/stat"
)

// Workload constants. The engine gets benchThreads workers, the number of
// CPUs of the reference machine, so the load never oversubscribes it.
const (
	benchThreads = 2
	prIters      = 5 // rank iterations, the paper's PageRank setting (§5.2)

	// memScale is the smallest RMAT scale at which the in-memory engine
	// auto-sizes K>1: 2^17 PageRank vertices at 32 footprint bytes each
	// fill two 2 MiB cache shares. Small operations give a run about a
	// hundred of them to take its medians over.
	memScale = 17
)

// prOp is the outcome of one PageRank operation.
type prOp struct {
	traced bool
	wall   time.Duration
	stats  core.Stats
	ranks  []float32
	phases map[string]float64 // traced operations only: span seconds by name
	err    error
}

// runPageRank runs the pagerank-mem workload: dense PageRank over a seeded
// RMAT graph, one solo RunMemory call per operation, repeated until the
// measuring time is spent.
func runPageRank(cfg runConfig) (*report, error) {
	src := xstream.RMAT(xstream.RMATConfig{Scale: memScale, EdgeFactor: 16, Seed: cfg.seed})
	edges, err := xstream.Materialize(src)
	if err != nil {
		return nil, fmt.Errorf("generate RMAT-%d: %w", memScale, err)
	}
	nv := src.NumVertices()
	g := xstream.NewSliceSource(edges, nv)
	rec := &recorder{}

	runOp := func(traced bool) prOp {
		var tr core.Tracer
		var id int
		if traced {
			id = rec.begin()
			tr = rec
		}
		// Each operation starts from a collected heap, so the garbage of
		// one is not charged to the next, and the resident peak does not
		// depend on where a collection happened to fall.
		runtime.GC()
		op := prOp{traced: traced}
		t0 := time.Now()
		res, err := xstream.RunMemory(g, xstream.NewPageRank(prIters), xstream.MemConfig{Threads: benchThreads, Tracer: tr})
		op.wall, op.err = time.Since(t0), err
		if err == nil {
			op.stats, op.ranks = res.Stats, xstream.PageRankValues(res.Vertices)
		}
		if traced {
			op.phases = rec.phaseSeconds(id)
		}
		return op
	}

	// One untimed warm-up operation lets the heap reach its steady size
	// before measuring; its result is still checked.
	ops := []prOp{runOp(false)}
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline) || i < minOps(cfg.trace); i++ {
		// The traced run alternates traced and untraced operations, so the
		// tracing overhead is measured in the same process.
		ops = append(ops, runOp(cfg.trace && i%2 == 1))
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}

	rep := newReport()
	rep.attempted = len(ops)
	want := refalgo.PageRank(nv, edges, prIters)
	for i := range ops {
		if ops[i].err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", i, ops[i].err)
			continue
		}
		if err := checkPageRank(ops[i].ranks, want); err != nil {
			rep.failed++
			rep.wrong++
			fmt.Fprintf(os.Stderr, "operation %d: wrong result: %v\n", i, err)
		}
	}

	var setup, run, wall, tracedRun []float64
	var total time.Duration
	for _, op := range ops[1:] {
		if op.err != nil {
			continue
		}
		s := op.stats.PreprocessTime.Seconds()
		if op.traced {
			tracedRun = append(tracedRun, op.wall.Seconds()-s)
			continue
		}
		setup = append(setup, s)
		run = append(run, op.wall.Seconds()-s)
		wall = append(wall, op.wall.Seconds())
		total += op.wall
	}
	rep.set("setup_s", stat.Median(setup))
	rep.set("run_s", stat.Median(run))
	rep.set("jobs_per_s", float64(len(wall))/total.Seconds())
	rep.set("job_p50_s", stat.Median(wall))
	rep.set("peak_rss_bytes", rss)
	fmt.Fprintf(os.Stderr, "%d measured operations (%d untraced), %d vertices, %d edges\n",
		len(ops)-1, len(wall), nv, len(edges))

	if !cfg.trace {
		return rep, nil
	}
	rep.set("obs.trace_overhead_fraction", stat.Median(tracedRun)/stat.Median(run)-1)
	prLayerMetrics(rep, ops[1:])
	if err := runMicro(rep, microInput{edges: edges, nv: nv, k: ops[0].stats.Partitions}); err != nil {
		return nil, err
	}
	phase := rep.values["memengine.scatter_s"] + rep.values["memengine.shuffle_s"] + rep.values["memengine.gather_s"]
	if seq := rep.values["membench.seq_read_gbps"] * 1e9; phase > 0 && seq > 0 {
		rep.set("memengine.stream_fraction", float64(ops[0].stats.BytesStreamed)/phase/seq)
	}
	return rep, rec.writeFile(cfg.tracePath(), rep.values)
}

// prLayerMetrics sets the per-layer metrics of the traced operations:
// medians of the span phase times and of the engine's work counters.
func prLayerMetrics(rep *report, ops []prOp) {
	var scatter, shuffle, gather, unattr []float64
	var last core.Stats
	for _, op := range ops {
		if !op.traced || op.err != nil {
			continue
		}
		p := op.phases
		scatter = append(scatter, p["scatter"])
		shuffle = append(shuffle, p["shuffle"])
		gather = append(gather, p["gather"])
		unattr = append(unattr, op.wall.Seconds()-p["preprocess"]-p["scatter"]-p["shuffle"]-p["gather"])
		last = op.stats
	}
	rep.set("memengine.scatter_s", stat.Median(scatter))
	rep.set("memengine.shuffle_s", stat.Median(shuffle))
	rep.set("memengine.gather_s", stat.Median(gather))
	rep.set("memengine.unattributed_s", stat.Median(unattr))
	rep.set("memengine.iterations", float64(last.Iterations))
	rep.set("memengine.edges_streamed", float64(last.EdgesStreamed))
	rep.set("core.skipped_fraction", last.SkippedFraction())
	rep.set("core.updates_sent", float64(last.UpdatesSent))
	rep.set("core.updates_combined", float64(last.UpdatesCombined))
	rep.set("core.update_bytes", float64(last.UpdateBytes))
	rep.set("core.transport_batches", float64(last.TransportBatches))
	rep.set("core.cross_fraction", last.CrossFraction())
}

// minOps is the least number of measured operations a run makes however
// short its measuring time: the traced run needs two traced and two
// untraced ones to compare.
func minOps(trace bool) int {
	if trace {
		return 4
	}
	return 3
}
