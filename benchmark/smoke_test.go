package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny runs every workload in well under a second of measurement: the
// same code paths as full, on small folds, banks and packs, without the
// calibration process (TestCalibrator covers it).
var tiny = sizes{
	minOps:         100,
	closedWindows:  1,
	setupWindows:   2,
	table2Warmup:   1,
	foldPerCat:     20,
	shardSize:      10,
	bankPerCat:     4,
	adaptiveWarmup: 1,
	packPerCat:     20,
}

// runTiny runs one workload at tiny size and returns its exit status,
// result line and full output.
func runTiny(t *testing.T, workload string, trace, faulty bool) (int, result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: "smoke", seconds: 0.05, trace: trace, size: tiny, faulty: faulty}
	var out, errs bytes.Buffer
	code := runConfig(context.Background(), cfg, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s%s", workload, err, out.String(), errs.String())
	}
	return code, res, out.String() + errs.String()
}

// checkPrinted asserts that every metric is in the result line with its
// unit and in the printed table.
func checkPrinted(t *testing.T, workload string, defs []metricDef, res result, out string) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result line, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.name, m, d.unit)
		}
		if !strings.Contains(out, d.name+" ") {
			t.Errorf("%s: metric %s not printed", workload, d.name)
		}
	}
}

func TestSmoke(t *testing.T) {
	// table2 never touches the shared scene cache, so it runs beside the
	// other three, which reset and budget it and so run one at a time.
	t.Run("table2", func(t *testing.T) {
		t.Parallel()
		smoke(t, workloads[0])
	})
	t.Run("cache", func(t *testing.T) {
		t.Parallel()
		for _, w := range workloads[1:] {
			t.Run(w.name, func(t *testing.T) { smoke(t, w) })
		}
	})
}

func smoke(t *testing.T, w workload) {
	// A wrong answer injected into the measured phase must be caught:
	// exit 1 for the batch workloads, failed requests for serve_mix.
	// The end-to-end metrics are printed anyway.
	code, res, out := runTiny(t, w.name, false, true)
	if w.name == "serve_mix" {
		if res.Failed == 0 || res.Correct {
			t.Errorf("injected fault: failed=%d correct=%v, want failed requests\n%s", res.Failed, res.Correct, out)
		}
	} else if code != 1 || res.Correct {
		t.Errorf("injected fault: exit %d correct=%v, want exit 1\n%s", code, res.Correct, out)
	}
	checkPrinted(t, w.name, endToEnd, res, out)
	for name, m := range res.Metrics {
		// serve_mix's failed runs count as infinitely slow, which the
		// result line cannot carry.
		if serveIter := w.name == "serve_mix" && strings.HasPrefix(name, "iter_"); !serveIter && name != "setup_s" && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
		}
	}

	code, res, out = runTiny(t, w.name, true, false)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: exit %d correct=%v failed=%d\n%s", code, res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "untraced digest ") || strings.Contains(out, "traced digest differs") {
		t.Errorf("traced digest must equal the untraced one\n%s", out)
	}
	checkPrinted(t, w.name, perLayer, res, out)
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metrics and
// workloads this package reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, package runs %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, package reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s %s, package reports %s %s", c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestCalibrator runs the calibration process for two short slices and
// stops it; the smoke test's tiny runs do without it.
func TestCalibrator(t *testing.T) {
	c, err := startCalibrator(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.slice(5 * time.Millisecond)
	c.slice(5 * time.Millisecond)
	if err := c.stop(); err != nil {
		t.Fatal(err)
	}
	if c.calls < 2 || c.busy < 10*time.Millisecond || c.speed() <= 0 {
		t.Errorf("calibration: %d calls in %v, speed %v", c.calls, c.busy, c.speed())
	}
	if (*calibrator)(nil).speed() != 1 {
		t.Error("a nil calibrator must report speed 1")
	}
}

// TestMain lets the test binary serve as the calibration process, which
// the benchmark starts as its own executable with the argument
// "kernel".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "kernel" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}
