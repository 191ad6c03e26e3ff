// Command steady checks that the benchmark is steady: it runs two sets of
// runs of the same build of every named workload, each run with its own
// seed, and prints each end-to-end metric's median and quartiles per set
// and over both sets, and whether the two sets agree within the bounds
// recorded in BENCHMARK.json. Run it from the repository root:
//
//	bash perfbench/run.sh steady -runs 5 -workloads pagerank-mem
//
// Seeds run from 1 upwards, one per run, and every run measures for the
// run_seconds of BENCHMARK.json. Two sets agree on a metric when the spread
// of each set (the distance between its quartiles as a share of its
// median) stays within the metric's bound and the two medians differ by no
// more than the bound, in either direction, as a share of the first. The
// share of failed operations must be identical in every run. The exit
// status is 1 when any metric or workload disagrees.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/perfbench/stat"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	runs := flag.Int("runs", 5, "runs per set")
	names := flag.String("workloads", "", "comma-separated workloads (default: all)")
	flag.Parse()

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	var selected []string
	if *names != "" {
		selected = strings.Split(*names, ",")
	} else {
		for _, w := range b.Workloads {
			selected = append(selected, w.Name)
		}
	}

	ok := true
	for _, w := range selected {
		var sets [2][]runResult
		seed := int64(1)
		for s := range sets {
			for r := 0; r < *runs; r++ {
				res, err := runOnce(b.Command, w, seed, b.RunSeconds)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w, seed, err))
				}
				fmt.Fprintf(os.Stderr, "%s set %d seed %d: attempted %d failed %d\n", w, s+1, seed, res.Attempted, res.Failed)
				sets[s] = append(sets[s], res)
				seed++
			}
		}
		if !report(b, w, sets) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOnce runs the benchmark command once and parses its last output line.
func runOnce(command []string, workload string, seed int64, seconds int) (runResult, error) {
	args := append(append([]string{}, command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runResult{}, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect results")
	}
	return res, nil
}

// report prints one workload's table and returns whether the sets agree.
func report(b benchmarkFile, workload string, sets [2][]runResult) bool {
	ok := true
	fmt.Printf("== %s: %d+%d runs\n", workload, len(sets[0]), len(sets[1]))
	fmt.Printf("%-16s %-6s %14s %14s %14s %8s %14s %8s %8s %8s  %s\n",
		"metric", "unit", "set1 median", "set1 q1", "set1 q3", "spread1", "set2 median", "spread2", "all", "bound", "verdict")
	for _, m := range b.EndToEnd {
		var vals [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				vals[s] = append(vals[s], r.Metrics[m.Name].Value)
			}
		}
		med := [2]float64{stat.Median(vals[0]), stat.Median(vals[1])}
		q := [2][]float64{stat.Quantiles(vals[0], 4), stat.Quantiles(vals[1], 4)}
		spread := [2]float64{(q[0][2] - q[0][0]) / med[0], (q[1][2] - q[1][0]) / med[1]}
		all := append(append([]float64{}, vals[0]...), vals[1]...)
		qa := stat.Quantiles(all, 4)
		spreadAll := (qa[2] - qa[0]) / stat.Median(all)

		var why []string
		for s := range spread {
			if spread[s] > m.Bound {
				why = append(why, fmt.Sprintf("set %d spread above bound", s+1))
			}
		}
		if diff := (med[1] - med[0]) / med[0]; math.Abs(diff) > m.Bound {
			why = append(why, fmt.Sprintf("set 2 median %+.1f%% off set 1", 100*diff))
		}
		verdict := "agree"
		if len(why) > 0 {
			verdict = "DISAGREE: " + strings.Join(why, ", ")
			ok = false
		}
		fmt.Printf("%-16s %-6s %14.6g %14.6g %14.6g %7.1f%% %14.6g %7.1f%% %7.1f%% %7.1f%%  %s\n",
			m.Name, m.Unit, med[0], q[0][0], q[0][2], 100*spread[0], med[1], 100*spread[1], 100*spreadAll, 100*m.Bound, verdict)
	}
	first := sets[0][0]
	for s := range sets {
		var att, failed int
		for _, r := range sets[s] {
			att += r.Attempted
			failed += r.Failed
			if r.Failed*first.Attempted != first.Failed*r.Attempted {
				fmt.Printf("DISAGREE: %d of %d operations failed in one run, %d of %d in another\n",
					r.Failed, r.Attempted, first.Failed, first.Attempted)
				ok = false
			}
		}
		fmt.Printf("set %d: %d of %d operations failed\n", s+1, failed, att)
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "steady: %v\n", err)
	os.Exit(2)
}
