// Command perfbench is the wall-clock benchmark of the X-Stream engines.
// It runs one named workload through the program's public entry points for
// a fixed measuring time, checks every output against the refalgo
// reference implementations, and prints one JSON line of metrics: the
// end-to-end metrics of untraced operations, or with -trace 1 the
// per-layer metrics of a traced run. See README.md for the workloads and
// what each metric should move.
//
//	perfbench -workload pagerank-mem -seed 1 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // build-output directory: traces are kept here
	dir      string // this run's scratch directory, removed at exit
}

// tracePath is where the traced run writes its spans and metrics.
func (c runConfig) tracePath() string {
	return filepath.Join(c.out, "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

var workloads = map[string]func(runConfig) (*report, error){
	"pagerank-mem":    runPageRank,
	"serve-traversal": runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: pagerank-mem or serve-traversal")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch device files and traces")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	runWorkload, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %v -trace %d\n", cfg.workload, seconds, trace)
		flag.Usage()
		return 2
	}

	if err := os.MkdirAll(filepath.Join(cfg.out, "traces"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg.dir = dir
	rep, err := runWorkload(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	line, err := rep.resultLine(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Println(string(line))
	if rep.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations returned wrong results\n", cfg.workload, rep.wrong)
		return 1
	}
	return 0
}
