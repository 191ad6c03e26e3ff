package main

import (
	"encoding/json"
	"math"
	"testing"

	xstream "repro"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/refalgo"
)

// The oracle must accept the engines' real outputs and reject any of them
// perturbed by one vertex.

func TestPageRankOracleRejectsPerturbedRank(t *testing.T) {
	src := xstream.RMAT(xstream.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5})
	edges, err := xstream.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xstream.RunMemory(xstream.NewSliceSource(edges, src.NumVertices()), xstream.NewPageRank(prIters), xstream.MemConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(src.NumVertices(), edges, prIters)
	got := xstream.PageRankValues(res.Vertices)
	if err := checkPageRank(got, want); err != nil {
		t.Fatalf("engine output rejected: %v", err)
	}
	got[17] *= 1.01
	if checkPageRank(got, want) == nil {
		t.Fatal("a rank 1% off was accepted")
	}
	got[17] = float32(math.NaN())
	if checkPageRank(got, want) == nil {
		t.Fatal("a NaN rank was accepted")
	}
	if checkPageRank(got[:10], want) == nil {
		t.Fatal("a short rank vector was accepted")
	}
}

func TestTraversalOracleRejectsPerturbedResults(t *testing.T) {
	src := graphgen.CliqueChain(8, 8, 3)
	edges, err := core.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	nv := src.NumVertices()
	g := core.NewSliceSource(edges, nv)
	const root = 5
	oracles := map[serveKey]any{}

	bfs, err := xstream.RunMemory(g, xstream.NewBFS(root), xstream.MemConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	levels := algorithms.Levels(bfs.Vertices)
	job := serveJob{algo: "bfs", root: root, payload: map[string]any{"levels": levels}}
	if err := checkServeJob(job, nv, edges, oracles); err != nil {
		t.Fatalf("engine BFS output rejected: %v", err)
	}
	levels[nv-1]++
	if checkServeJob(job, nv, edges, oracles) == nil {
		t.Fatal("a BFS level one off was accepted")
	}

	sssp, err := xstream.RunMemory(g, xstream.NewSSSP(root), xstream.MemConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	dists := algorithms.Distances(sssp.Vertices)
	job = serveJob{algo: "sssp", root: root, payload: map[string]any{"distances": dists}}
	if err := checkServeJob(job, nv, edges, oracles); err != nil {
		t.Fatalf("engine SSSP output rejected: %v", err)
	}
	dists[nv-1] += 0.01
	if checkServeJob(job, nv, edges, oracles) == nil {
		t.Fatal("an SSSP distance 0.01 off was accepted")
	}
	dists[nv-1] = -1
	if checkServeJob(job, nv, edges, oracles) == nil {
		t.Fatal("a reachable vertex reported unreachable was accepted")
	}

	rep := newReport()
	checkServe(rep, nv, edges, []serveJob{job, {algo: "bfs", root: root, payload: "not a payload"}})
	if rep.failed != 2 || rep.wrong != 2 {
		t.Fatalf("checkServe counted %d failed, %d wrong; want 2 and 2", rep.failed, rep.wrong)
	}
	if line, err := rep.resultLine(false); err != nil || !json.Valid(line) {
		t.Fatalf("result line of a failed run: %s, %v", line, err)
	}
}
