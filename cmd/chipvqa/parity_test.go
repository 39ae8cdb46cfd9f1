package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/runspec"
	"repro/internal/serve"
)

// startParityServer runs chipvqa serve's handler over the suite's zoo
// on a loopback listener, drained at cleanup.
func startParityServer(t *testing.T) string {
	t.Helper()
	suite, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := suite.NewServer(chipvqa.ServerConfig{PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if forced := srv.Drain(ctx); forced != 0 {
			t.Errorf("teardown drain force-cancelled %d run(s)", forced)
		}
	})
	return ts.URL
}

// post sends body to POST /v1/runs and returns the status and body.
func post(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// get fetches base+path and returns its body, failing unless 200.
func get(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", path, resp.StatusCode, out)
	}
	return out
}

// TestRunSpecParity sends one table of specs to both front ends. The
// CLI and chipvqa serve validate and dispatch a run through the same
// runspec.Env.Validate and Env.Run, so a spec the daemon refuses with
// 400 is a usage error (exit 2, nothing on stdout) from the CLI, and a
// valid spec gives the same report bytes from both.
func TestRunSpecParity(t *testing.T) {
	base := startParityServer(t)
	invalid := []struct {
		name string
		cmd  func(context.Context, []string) error
		args []string
		// wire is the same spec for POST /v1/runs, which must answer
		// 400; empty for a spelling only the CLI has. serve reads a zero
		// per_category or shard_size as its default, so the CLI's
		// explicit -n 0 and -shard 0 have no wire twin.
		wire string
	}{
		{"negative workers", cmdEval, []string{"-workers", "-1"}, `{"workers":-1}`},
		{"negative workers (-5)", cmdEval, []string{"-workers", "-5"}, `{"workers":-5}`},
		{"too many workers", cmdChallenge, []string{"-workers", "99999"}, `{"workers":99999}`},
		{"unknown model", cmdResolution, []string{"-model", "NoSuchModel"}, `{"models":["NoSuchModel"]}`},
		{"unknown collection", cmdResolution, []string{"-category", "nope"}, `{"collection":"nope"}`},
		{"negative per_category", cmdExtended, []string{"-n", "-2", "-eval"}, `{"kind":"extended","per_category":-2}`},
		{"negative shard_size", cmdExtended, []string{"-n", "1", "-eval", "-stream", "-shard", "-1"}, `{"kind":"extended","shard_size":-1}`},
		{"oversized shard_size", cmdExtended, []string{"-n", "1", "-eval", "-stream", "-shard", "4097"}, `{"kind":"extended","shard_size":4097}`},
		{"downsample 3", cmdExtended, []string{"-n", "1", "-eval", "-downsample", "3"}, `{"downsample":3}`},
		{"downsample -8", cmdExtended, []string{"-n", "1", "-eval", "-stream", "-downsample", "-8"}, `{"downsample":-8}`},
		{"negative adaptive per_category", cmdAdaptive, []string{"-n", "-1"}, `{"kind":"adaptive","per_category":-1}`},
		{"extended -n 0", cmdExtended, []string{"-n", "0", "-eval"}, ""},
		{"extended -n 0 -stream", cmdExtended, []string{"-n", "0", "-eval", "-stream"}, ""},
		{"extended -shard 0", cmdExtended, []string{"-n", "1", "-eval", "-stream", "-shard", "0"}, ""},
		{"adaptive -n 0", cmdAdaptive, []string{"-n", "0"}, ""},
		{"adaptive negative budget", cmdAdaptive, []string{"-budget", "-3"}, ""},
		{"adaptive negative workers", cmdAdaptive, []string{"-n", "2", "-workers", "-1"}, ""},
		{"items negative workers", cmdItems, []string{"-workers", "-1"}, ""},
		{"items negative k", cmdItems, []string{"-k", "-1"}, ""},
		{"agent negative workers", cmdAgent, []string{"-workers", "-1"}, `{"workers":-1}`},
		{"agent too many workers", cmdAgent, []string{"-workers", "4097"}, `{"workers":4097}`},
		{"compare negative workers", cmdCompare, []string{"-workers", "-3"}, `{"workers":-3}`},
	}
	for _, c := range invalid {
		out, err := captureStdout(t, func() error { return c.cmd(context.Background(), c.args) })
		if code := exitCode(err); code != 2 {
			t.Errorf("%s: CLI %v exits %d (%v), want 2", c.name, c.args, code, err)
		}
		if len(out) != 0 {
			t.Errorf("%s: CLI %v printed %q before refusing", c.name, c.args, out)
		}
		if c.wire == "" {
			continue
		}
		if code, body := post(t, base, c.wire); code != http.StatusBadRequest {
			t.Errorf("%s: POST %s = %d (%s), want 400", c.name, c.wire, code, body)
		}
	}

	// The one stated difference: per_category has no ceiling offline
	// (serve's 100000 case in TestServeRunValidation is the same limit).
	if code, body := post(t, base, `{"kind":"extended","per_category":2001}`); code != http.StatusBadRequest {
		t.Errorf("POST per_category 2001 = %d (%s), want 400", code, body)
	}
	if _, err := captureStdout(t, func() error {
		return cmdExtended(context.Background(), []string{"-n", "2001", "-eval", "-stream", "-shard", "4096"})
	}); err != nil {
		t.Errorf("extended -n 2001 -eval -stream: %v, want it to run offline", err)
	}

	valid := []struct {
		name string
		spec runspec.Spec
	}{
		{"standard", runspec.Spec{Downsample: 1, Workers: 2}},
		{"challenge", runspec.Spec{Kind: "challenge", Downsample: 1, Workers: 2}},
		{"standard at 16x", runspec.Spec{Downsample: 16, Workers: 2}},
		{"extended", runspec.Spec{Kind: "extended", Seed: "parity", PerCategory: 3, ShardSize: 4, Downsample: 1, Workers: 2}},
		{"adaptive", runspec.Spec{Kind: "adaptive", Seed: "parity", PerCategory: 2, Downsample: 1, Workers: 2,
			Models: []string{"GPT4o", "LLaVA-7b", "kosmos-2"}}},
	}
	for _, c := range valid {
		wire, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		code, body := post(t, base, string(wire))
		if code != http.StatusCreated {
			t.Fatalf("%s: POST %s = %d (%s)", c.name, wire, code, body)
		}
		var st serve.RunStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		get(t, base, "/v1/runs/"+st.ID+"/events") // follows the run to its end
		served := get(t, base, "/v1/runs/"+st.ID+"/report")

		// The CLI's environment; an adaptive run takes serve's
		// tie-break seed, the fold seed, as its -runseed.
		spec := c.spec
		env, err := runEnv(func(_ *chipvqa.Suite, env *runspec.Env) {
			env.Tournament = &chipvqa.AdaptiveConfig{Seed: spec.Seed}
		}, &spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reports, _, err := env.Run(context.Background(), spec, spec.Workers, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		offline, err := serve.MarshalReports(reports)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, offline) {
			t.Errorf("%s: served report (%d bytes) differs from the CLI's (%d bytes)", c.name, len(served), len(offline))
		}
	}
}

// TestRunRejectionsNameFlags pins who names a rejected value: the CLI
// says which flag was wrong, in the line main prints to stderr, and
// serve's 400 body keeps the spec field's wire name.
func TestRunRejectionsNameFlags(t *testing.T) {
	cases := []struct {
		cmd  func(context.Context, []string) error
		args []string
		want string
	}{
		{cmdExtended, []string{"-n", "0", "-eval"}, "chipvqa: -n must be >= 1, got 0\n"},
		{cmdExtended, []string{"-n", "1", "-eval", "-stream", "-shard", "0"}, "chipvqa: -shard 0 outside [1, 4096]\n"},
		{cmdExtended, []string{"-n", "1", "-eval", "-downsample", "3"}, "chipvqa: -downsample must be one of 1,2,4,8,16,32, got 3\n"},
		{cmdAdaptive, []string{"-n", "-1"}, "chipvqa: -n must be >= 1, got -1\n"},
		{cmdEval, []string{"-workers", "-1"}, "chipvqa: -workers -1 outside [0, 4096]\n"},
		{cmdAgent, []string{"-workers", "-1"}, "chipvqa: -workers -1 outside [0, 4096]\n"},
		{cmdCompare, []string{"-workers", "-3"}, "chipvqa: -workers -3 outside [0, 4096]\n"},
	}
	for _, c := range cases {
		_, err := captureStdout(t, func() error { return c.cmd(context.Background(), c.args) })
		// main prints a command's error to stderr exactly so.
		if got := fmt.Sprintln("chipvqa:", err); got != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, got, c.want)
		}
	}

	base := startParityServer(t)
	for wire, want := range map[string]string{
		`{"kind":"extended","per_category":-2}`: "per_category must be >= 1, got -2",
		`{"kind":"extended","shard_size":-1}`:   "shard_size -1 outside [1, 4096]",
		`{"workers":-1}`:                        "workers -1 outside [0, 4096]",
	} {
		code, body := post(t, base, wire)
		var got struct{ Error string }
		if err := json.Unmarshal(body, &got); err != nil || code != http.StatusBadRequest || got.Error != want {
			t.Errorf("POST %s = %d (%s), want 400 saying %q", wire, code, body, want)
		}
	}
}
