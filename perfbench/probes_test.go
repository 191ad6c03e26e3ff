package main

import (
	"math"
	"testing"

	xstream "repro"
	"repro/internal/core"
	"repro/internal/partition2ps"
	"repro/internal/storage"
)

// The probes must observe without changing a single result bit. PageRank
// runs at one thread, where its float results are bit-reproducible; BFS is
// exact at any thread count.

func bitsOf(ranks []float32) []uint32 {
	out := make([]uint32, len(ranks))
	for i, r := range ranks {
		out[i] = math.Float32bits(r)
	}
	return out
}

func TestProbesChangeNoResultBit(t *testing.T) {
	src := xstream.RMAT(xstream.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 9})
	edges, err := xstream.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	g := xstream.NewSliceSource(edges, src.NumVertices())

	newDev := func() storage.Device {
		d, err := storage.NewOS("probe-test", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	diskCfg := func(dev storage.Device, part core.Partitioner, tr core.Tracer, threads int) xstream.DiskConfig {
		return xstream.DiskConfig{Device: dev, Threads: threads, Partitions: 4, IOUnit: 16 << 10,
			CompressTiles: true, Partitioner: part, Tracer: tr, Selective: true}
	}

	plainPR, err := xstream.RunDisk(g, xstream.NewPageRank(prIters), diskCfg(newDev(), partition2ps.New(), nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	dev := newTimingDevice(newDev())
	dev.on.Store(true)
	part := &timingPartitioner{inner: partition2ps.New()}
	rec := &recorder{}
	rec.begin()
	probedPR, err := xstream.RunDisk(g, xstream.NewPageRank(prIters), diskCfg(dev, part, rec, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, got := bitsOf(xstream.PageRankValues(plainPR.Vertices)), bitsOf(xstream.PageRankValues(probedPR.Vertices))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("disk PageRank vertex %d: %#x with probes, %#x without", v, got[v], want[v])
		}
	}
	if plainPR.Stats.BytesRead != probedPR.Stats.BytesRead || plainPR.Stats.EdgesStreamed != probedPR.Stats.EdgesStreamed {
		t.Fatalf("work counters moved: read %d vs %d, streamed %d vs %d", plainPR.Stats.BytesRead, probedPR.Stats.BytesRead,
			plainPR.Stats.EdgesStreamed, probedPR.Stats.EdgesStreamed)
	}
	io := dev.io.snapshot()
	if io.readOps == 0 || io.readBytes == 0 || io.writeBytes == 0 || len(part.assignSeconds()) != 1 {
		t.Fatalf("probes saw nothing: %+v, %d assigns", io, len(part.assignSeconds()))
	}
	if io.readBytes != probedPR.Stats.BytesRead {
		t.Fatalf("device probe counted %d bytes read, the engine %d", io.readBytes, probedPR.Stats.BytesRead)
	}
	phases := rec.phaseSeconds(1)
	if phases["scatter"] <= 0 || phases["gather"] <= 0 || phases["preprocess"] <= 0 {
		t.Fatalf("recorder missed phase spans: %v", phases)
	}

	const root = 3
	plainBFS, err := xstream.RunDisk(g, xstream.NewBFS(root), diskCfg(newDev(), partition2ps.New(), nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	probedBFS, err := xstream.RunDisk(g, xstream.NewBFS(root), diskCfg(dev, part, rec, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantL, gotL := xstream.BFSLevels(plainBFS.Vertices), xstream.BFSLevels(probedBFS.Vertices)
	for v := range wantL {
		if gotL[v] != wantL[v] {
			t.Fatalf("disk BFS vertex %d: level %d with probes, %d without", v, gotL[v], wantL[v])
		}
	}

	plainMem, err := xstream.RunMemory(g, xstream.NewPageRank(prIters), xstream.MemConfig{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracedMem, err := xstream.RunMemory(g, xstream.NewPageRank(prIters), xstream.MemConfig{Threads: 1, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	want, got = bitsOf(xstream.PageRankValues(plainMem.Vertices)), bitsOf(xstream.PageRankValues(tracedMem.Vertices))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("mem PageRank vertex %d: %#x traced, %#x untraced", v, got[v], want[v])
		}
	}
}
