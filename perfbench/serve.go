package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graphgen"
	"repro/internal/jobs"
	"repro/internal/partition2ps"
	"repro/internal/storage"
	"repro/perfbench/stat"
)

// serve-traversal: a closed loop of clients over one jobs.Scheduler and one
// registered dataset on the out-of-core engine.
const (
	// A chain of 64 cliques of 64 vertices: diameter about 128, so a
	// traversal runs ~100 iterations touching one or two cliques each.
	// cliques must be a power of two for stratifiedRoot.
	cliques    = 64
	cliqueSize = 64

	serveClients = benchThreads
	// serveWindow is how many jobs each client keeps outstanding.
	serveWindow = 2
	// serveSetups is how many times a run registers and builds the
	// dataset from scratch to take the median set-up time (about 20 ms
	// each).
	serveSetups = 25
	// serveK and serveIOUnit are the out-of-core settings of the
	// repository's figfrontier experiment, which uses the same generator:
	// partitions small enough for frontier skipping to pay.
	serveK      = 16
	serveIOUnit = 32 << 10
	// planK is the partition count the dataset plans its 2PS permutation
	// at (dataset.plan uses max(64, MemPartitions)).
	planK = 64
)

// roundAlgos is one client's round, the unit a run repeats whole: six BFS
// jobs, one SSSP job and, last, a repeat of an earlier request of the same
// client that is already answered, so the result cache serves one job in
// eight.
var roundAlgos = [...]string{"bfs", "bfs", "bfs", "sssp", "bfs", "bfs", "bfs", "repeat"}

const roundJobs = len(roundAlgos)

// serveJob is one submitted request and what came back.
type serveJob struct {
	algo    string
	root    core.VertexID
	latency time.Duration
	info    jobs.Info
	stats   *core.Stats
	payload any
	err     error
	// probed and unprobed are set in the traced run when the device
	// probe recorded, or did not, from the job's submission to its result.
	probed, unprobed bool
}

func runServe(cfg runConfig) (*report, error) {
	src := graphgen.CliqueChain(cliques, cliqueSize, cfg.seed)
	edges, err := core.Materialize(src)
	if err != nil {
		return nil, fmt.Errorf("generate clique chain: %w", err)
	}
	nv := src.NumVertices()
	g := core.NewSliceSource(edges, nv)

	// Set-up: register the dataset and build its out-of-core state, each
	// time on a fresh device so the 2PS plan is never replayed from disk.
	var setups []float64
	var reg *dataset.Registry
	var ds *dataset.Dataset
	var dev *timingDevice
	for i := 0; i < serveSetups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		osdev, err := storage.NewOS("perfbench", dir)
		if err != nil {
			return nil, err
		}
		var d storage.Device = osdev
		if cfg.trace {
			dev = newTimingDevice(osdev)
			dev.on.Store(true)
			d = dev
		}
		if reg != nil {
			reg.Close()
		}
		reg = dataset.NewRegistry()
		t0 := time.Now()
		ds, err = reg.Add("cliquechain", g, dataset.Options{
			Partitioner:    "2ps",
			Threads:        1, // two scheduler workers, one engine thread each
			Device:         d,
			DiskPartitions: serveK,
			IOUnit:         serveIOUnit,
			CompressTiles:  true,
		})
		if err == nil {
			_, err = ds.Disk()
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			reg.Close()
			return nil, fmt.Errorf("dataset set-up: %w", err)
		}
	}
	defer reg.Close()

	sched := jobs.New(reg, jobs.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer sched.Close()

	offsets := make([]int, cliques)
	seeded := rand.New(rand.NewSource(cfg.seed))
	for q := range offsets {
		offsets[q] = seeded.Intn(cliqueSize)
	}
	// The traced run's device probe recorded the last set-up's writes;
	// while serving it records in every other probeSlice.
	var setupIO ioSnapshot
	var probe *probeToggle
	if dev != nil {
		setupIO = dev.io.snapshot()
		dev.io.reset()
		probe = startProbeToggle(dev)
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	results := make([][]serveJob, serveClients)
	ends := make([]time.Time, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))
			count := map[string]int{}
			var done []serveJob
			var outstanding []*pending
			complete := func() {
				p := outstanding[0]
				outstanding = outstanding[1:]
				j := p.finish(sched)
				if probe != nil && p.slice == probe.slice.Load() {
					j.probed = p.slice%2 == 1
					j.unprobed = !j.probed
				}
				done = append(done, j)
			}
			for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
				for i := 0; i < roundJobs; i++ {
					if len(outstanding) == serveWindow {
						complete()
					}
					var j serveJob
					if roundAlgos[i] == "repeat" {
						// Jobs up to i-serveWindow of this round are
						// answered already.
						prev := done[len(done)-1-rng.Intn(i-serveWindow+1)]
						j = serveJob{algo: prev.algo, root: prev.root}
					} else {
						a := roundAlgos[i]
						j = serveJob{algo: a, root: stratifiedRoot(count[a]*serveClients+c, offsets)}
						count[a]++
					}
					p := submit(sched, j)
					if probe != nil {
						p.slice = probe.slice.Load()
					}
					outstanding = append(outstanding, p)
				}
			}
			for len(outstanding) > 0 {
				complete()
			}
			results[c], ends[c] = done, time.Now()
		}(c)
	}
	wg.Wait()
	var probeShare float64
	if probe != nil {
		probeShare = probe.stop()
	}
	end := ends[0]
	for _, t := range ends[1:] {
		if t.After(end) {
			end = t
		}
	}
	elapsed := end.Sub(start)
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}

	rep := newReport()
	var all []serveJob
	for _, r := range results {
		all = append(all, r...)
	}
	rep.attempted = len(all)
	checkServe(rep, nv, edges, all)

	var lat, run []float64
	var fresh []serveJob
	for _, j := range all {
		if j.err != nil {
			continue
		}
		lat = append(lat, j.latency.Seconds())
		if !j.info.Cached {
			fresh = append(fresh, j)
			run = append(run, j.info.RunSeconds)
		}
	}
	rep.set("setup_s", stat.Median(setups))
	rep.set("run_s", stat.Median(run))
	rep.set("jobs_per_s", float64(len(lat))/elapsed.Seconds())
	rep.set("job_p50_s", stat.Median(lat))
	rep.set("peak_rss_bytes", rss)
	fmt.Fprintf(os.Stderr, "%d jobs in %.2fs (%d from cache), %d vertices, %d edges\n",
		len(all), elapsed.Seconds(), len(all)-len(fresh), nv, len(edges))
	if !cfg.trace {
		return rep, nil
	}

	serveLayerMetrics(rep, sched.Metrics(), fresh, dev, probeShare)
	rep.set("storage.write_bytes", float64(setupIO.writeBytes))
	rep.set("storage.write_s", setupIO.writeS)
	rep.set("dataset.resident_bytes", float64(ds.Info().ResidentBytes))
	var on, off []float64
	for _, j := range all {
		if j.probed {
			on = append(on, j.latency.Seconds())
		} else if j.unprobed {
			off = append(off, j.latency.Seconds())
		}
	}
	rep.set("obs.trace_overhead_fraction", stat.Median(on)/stat.Median(off)-1)

	// The dataset plans its 2PS permutation internally; the same Assign
	// is timed here through the partitioner probe, and its relabeling
	// lays out the microbenchmarks' data as the dataset's files are.
	part := &timingPartitioner{inner: partition2ps.New()}
	asg, err := part.Assign(g, planK)
	if err != nil {
		return nil, err
	}
	rep.set("partition2ps.assign_s", part.assignSeconds()[0])
	if err := runMicro(rep, microInput{edges: edges, nv: nv, k: serveK, relabel: asg.Relabel, dev: dev.Device}); err != nil {
		return nil, err
	}
	if rep.values["storage.seq_read_gbps"] > 0 {
		rep.set("storage.stream_fraction", rep.values["storage.read_gbps"]/rep.values["storage.seq_read_gbps"])
	}
	return rep, (&recorder{}).writeFile(cfg.tracePath(), rep.values)
}

// stratifiedRoot returns the root of the k-th fresh request of an
// algorithm. A traversal's cost depends on where its root sits along the
// chain, so requests walk the cliques in bit-reversed order, which spreads
// any run of consecutive requests evenly over the chain: every run sees the
// same mix of end and middle roots whatever the seed. Within a clique the
// root is a seeded random vertex (offsets[q]) that advances by one on each
// visit, so no fresh request repeats another by chance and cache hits are
// exactly the planned repeats.
func stratifiedRoot(k int, offsets []int) core.VertexID {
	q := int(bits.Reverse64(uint64(k%cliques)) >> (64 - bits.Len(cliques-1)))
	return core.VertexID(q*cliqueSize + (offsets[q]+k/cliques)%cliqueSize)
}

// minRounds is the least number of rounds each client runs however short
// the measuring time, so a run's medians always rest on at least
// serveClients·minRounds·roundJobs = 112 jobs.
const minRounds = 7

// pending is a submitted job not yet collected.
type pending struct {
	job   serveJob
	id    string
	t0    time.Time
	slice int64 // traced run: the probe slice the job was submitted in
}

// probeSlice is how long the traced serving run keeps the device probe in
// one state before switching it: short enough that probed and unprobed
// jobs share the same period of the run, long enough that most BFS jobs
// start and end in one slice.
const probeSlice = time.Second

// probeToggle switches a device probe on and off every probeSlice, so the
// traced serving run compares probed with unprobed jobs that ran side by
// side. slice counts the switches, and the probe records in odd slices; a
// job whose submission and result fall in one slice ran wholly in that
// slice's state.
type probeToggle struct {
	slice atomic.Int64
	done  chan struct{}
	share chan float64
}

func startProbeToggle(dev *timingDevice) *probeToggle {
	p := &probeToggle{done: make(chan struct{}), share: make(chan float64)}
	dev.on.Store(false)
	go func() {
		tick := time.NewTicker(probeSlice)
		defer tick.Stop()
		start, last := time.Now(), time.Now()
		var onTime time.Duration
		for {
			select {
			case <-p.done:
				if dev.on.Load() {
					onTime += time.Since(last)
				}
				dev.on.Store(false)
				p.share <- onTime.Seconds() / time.Since(start).Seconds()
				return
			case now := <-tick.C:
				if dev.on.Load() {
					onTime += now.Sub(last)
				}
				last = now
				dev.on.Store(p.slice.Add(1)%2 == 1)
			}
		}
	}()
	return p
}

// stop ends the switching, turns the probe off and returns the share of
// the time the probe recorded.
func (p *probeToggle) stop() float64 {
	close(p.done)
	return <-p.share
}

func submit(s *jobs.Scheduler, j serveJob) *pending {
	p := &pending{job: j, t0: time.Now()}
	p.id, p.job.err = s.Submit(jobs.Request{
		Dataset: "cliquechain", Algo: j.algo, Engine: jobs.EngineDisk,
		Params: algorithms.Params{Root: j.root},
	})
	return p
}

// finish waits for the job, fetches its result and stamps the latency.
func (p *pending) finish(s *jobs.Scheduler) serveJob {
	j := p.job
	if j.err != nil {
		return j
	}
	j.info, j.err = s.Wait(context.Background(), p.id)
	if j.err == nil {
		j.payload, _, j.stats, j.err = s.Result(p.id)
	}
	j.latency = time.Since(p.t0)
	return j
}

// serveLayerMetrics sets the per-layer metrics of the serving run from the
// scheduler's counters, each fresh job's Info and Stats, and the device
// probe's reads in the slices it recorded, scaled to a job by the share of
// the serving time those slices took. A job of a shared pass carries no
// phase times of its own; jobs.run_p50_s is the pass time a job sees.
func serveLayerMetrics(rep *report, m jobs.Metrics, fresh []serveJob, dev *timingDevice, probeShare float64) {
	var wait, run, iters, streamed, skipped []float64
	var sent, combined, ubytes, batches []float64
	var sumStreamed, sumSkipped float64
	for _, j := range fresh {
		st := j.stats
		wait = append(wait, j.info.QueueWaitSeconds)
		run = append(run, j.info.RunSeconds)
		iters = append(iters, float64(st.Iterations))
		streamed = append(streamed, float64(st.EdgesStreamed))
		skipped = append(skipped, float64(st.EdgesSkipped))
		sent = append(sent, float64(st.UpdatesSent))
		combined = append(combined, float64(st.UpdatesCombined))
		ubytes = append(ubytes, float64(st.UpdateBytes))
		batches = append(batches, float64(st.TransportBatches))
		sumStreamed += float64(st.EdgesStreamed)
		sumSkipped += float64(st.EdgesSkipped)
	}
	rep.set("jobs.queue_wait_p50_s", stat.Median(wait))
	rep.set("jobs.run_p50_s", stat.Median(run))
	rep.set("jobs.batches", float64(m.Batches))
	if m.Batches > 0 {
		rep.set("jobs.mean_batch_size", float64(m.BatchedJobs)/float64(m.Batches))
	}
	rep.set("jobs.edges_shared", float64(m.EdgesShared))
	if len(fresh) > 0 {
		rep.set("jobs.edges_streamed_per_job", float64(m.EdgesStreamed)/float64(len(fresh)))
	}
	rep.set("jobs.cache_hits", float64(m.CacheHits))
	rep.set("diskengine.partitions", serveK)
	rep.set("diskengine.iterations", stat.Median(iters))
	rep.set("diskengine.edges_streamed", stat.Median(streamed))
	rep.set("diskengine.edges_skipped", stat.Median(skipped))
	if sumStreamed+sumSkipped > 0 {
		rep.set("core.skipped_fraction", sumSkipped/(sumStreamed+sumSkipped))
	}
	rep.set("core.updates_sent", stat.Median(sent))
	rep.set("core.updates_combined", stat.Median(combined))
	rep.set("core.update_bytes", stat.Median(ubytes))
	rep.set("core.transport_batches", stat.Median(batches))

	// Device traffic per fresh job.
	io := dev.io.snapshot()
	if onJobs := probeShare * float64(len(fresh)); onJobs > 0 {
		rep.set("storage.read_bytes", float64(io.readBytes)/onJobs)
		rep.set("storage.read_ops", float64(io.readOps)/onJobs)
		rep.set("storage.read_s", io.readS/onJobs)
	}
	if io.readS > 0 {
		rep.set("storage.read_gbps", float64(io.readBytes)/io.readS/1e9)
	}
}
