package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/refalgo"
)

// Every operation's output is checked after timing against refalgo, the
// repository's plain sequential reference implementations, computed here
// from the same generated edges and never from a stored copy of an earlier
// output.

// Tolerances: float32 engine arithmetic against float64 references, the
// same bounds the repository's equivalence suite uses.
const (
	pageRankTol = 1e-3
	ssspTol     = 1e-4
)

// checkPageRank accepts ranks within pageRankTol of want, relative to
// 1+|want|.
func checkPageRank(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(float64(got[v]) - want[v]); !(d <= pageRankTol*(1+math.Abs(want[v]))) {
			return fmt.Errorf("vertex %d: rank %g, want %g", v, got[v], want[v])
		}
	}
	return nil
}

// checkBFS requires the levels to equal want exactly.
func checkBFS(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d levels, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: level %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkSSSP accepts distances within ssspTol of want, relative to 1+want.
// The serving payload reports unreachable vertices as -1.
func checkSSSP(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d distances, want %d", len(got), len(want))
	}
	for v := range want {
		if math.IsInf(want[v], 1) {
			if got[v] != -1 {
				return fmt.Errorf("vertex %d: distance %g, want unreachable", v, got[v])
			}
			continue
		}
		if d := math.Abs(float64(got[v]) - want[v]); !(d <= ssspTol*(1+want[v])) {
			return fmt.Errorf("vertex %d: distance %g, want %g", v, got[v], want[v])
		}
	}
	return nil
}

// checkServeJob checks one job's payload; oracles caches the reference
// answers by request, so a repeated root costs one reference run.
func checkServeJob(j serveJob, nv int64, edges []core.Edge, oracles map[serveKey]any) error {
	payload, ok := j.payload.(map[string]any)
	if !ok {
		return fmt.Errorf("payload is %T", j.payload)
	}
	key := serveKey{j.algo, j.root}
	want, ok := oracles[key]
	switch j.algo {
	case "bfs":
		if !ok {
			want = refalgo.BFSLevels(nv, edges, j.root)
			oracles[key] = want
		}
		got, ok := payload["levels"].([]int32)
		if !ok {
			return fmt.Errorf("bfs payload levels are %T", payload["levels"])
		}
		return checkBFS(got, want.([]int32))
	case "sssp":
		if !ok {
			want = refalgo.Dijkstra(nv, edges, j.root)
			oracles[key] = want
		}
		got, ok := payload["distances"].([]float32)
		if !ok {
			return fmt.Errorf("sssp payload distances are %T", payload["distances"])
		}
		return checkSSSP(got, want.([]float64))
	}
	return fmt.Errorf("unknown algorithm %q", j.algo)
}

type serveKey struct {
	algo string
	root core.VertexID
}

// checkServe counts failed and wrong jobs on rep.
func checkServe(rep *report, nv int64, edges []core.Edge, all []serveJob) {
	oracles := map[serveKey]any{}
	for i, j := range all {
		if j.err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "job %d (%s from %d) failed: %v\n", i, j.algo, j.root, j.err)
			continue
		}
		if err := checkServeJob(j, nv, edges, oracles); err != nil {
			rep.failed++
			rep.wrong++
			fmt.Fprintf(os.Stderr, "job %d (%s from %d, cached %v): wrong result: %v\n", i, j.algo, j.root, j.info.Cached, err)
		}
	}
}
