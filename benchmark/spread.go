package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the spread check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults reads one result line per line of a file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// timingRepeat is how far apart a timing metric's runs in one set may
// read, as (max-min)/median: a tenth, or the metric's bound when that is
// tighter. A timing metric is one measured in seconds, milliseconds or
// per second.
const timingRepeat = 0.1

func isTiming(unit string) bool { return unit == "s" || unit == "ms" || unit == "1/s" }

// runSpread implements `spread BENCHMARK.json SET...`: for each
// end-to-end metric and each set of result lines it prints the median,
// quartiles, interquartile range and (max-min) as shares of the median.
// It fails when any run in a set failed a check; when a set's range
// (max-min)/median exceeds the metric's bound, or timingRepeat for a
// timing metric; or when a later set's median moves from the first
// set's by more than the bound. No metric is exempt, setup_s included.
func runSpread(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: benchmark spread BENCHMARK.json SET.jsonl...")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "spread: %v\n", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "spread: %s: %v\n", args[0], err)
		return 1
	}
	sets := make([][]result, 0, len(args)-1)
	for _, path := range args[1:] {
		rs, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "spread: %v\n", err)
			return 1
		}
		for i, r := range rs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(stderr, "spread: %s run %d: correct=%v failed=%d\n", path, i+1, r.Correct, r.Failed)
				return 1
			}
		}
		sets = append(sets, rs)
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %4s %14s %14s %14s %8s %8s %7s\n", "metric", "set", "median", "q1", "q3", "iqr/med", "rng/med", "limit")
	for _, m := range spec.EndToEnd {
		var first float64
		for si, rs := range sets {
			xs := make([]float64, 0, len(rs))
			unit := ""
			for _, r := range rs {
				if v, ok := r.Metrics[m.Name]; ok {
					xs = append(xs, v.Value)
					unit = v.Unit
				}
			}
			if len(xs) != len(rs) {
				fmt.Fprintf(stderr, "spread: %s missing from %d runs of set %d\n", m.Name, len(rs)-len(xs), si+1)
				return 1
			}
			q1, med, q3, err := quartiles(xs)
			if err != nil {
				fmt.Fprintf(stderr, "spread: %s: %v\n", m.Name, err)
				return 1
			}
			s := sorted(xs)
			iqr, rng := (q3-q1)/med, (s[len(s)-1]-s[0])/med
			limit := m.Bound
			if isTiming(unit) {
				limit = min(limit, timingRepeat)
			}
			fmt.Fprintf(stdout, "%-16s %4d %14.6g %14.6g %14.6g %8.4f %8.4f %7.3f\n", m.Name, si+1, med, q1, q3, iqr, rng, limit)
			if rng > limit {
				fmt.Fprintf(stderr, "spread: %s set %d: runs %.4f apart, over %.3f\n", m.Name, si+1, rng, limit)
				status = 1
			}
			if si == 0 {
				first = med
			} else if d := math.Abs(med-first) / first; d > m.Bound {
				fmt.Fprintf(stderr, "spread: %s set %d: median moved %.4f from set 1, over bound %.3f\n", m.Name, si+1, d, m.Bound)
				status = 1
			}
		}
	}
	return status
}
