package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// TestCmdServeInterrupted mirrors TestCmdRenderInterrupted for the
// daemon: a dead context must take cmdServe straight through the drain
// path and out, not leave it listening.
func TestCmdServeInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "1s"})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cmdServe on dead ctx = %v, want nil (clean drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cmdServe did not exit after cancellation")
	}
}

// TestCmdServeUsage pins flag/operand misuse to the usage exit code.
func TestCmdServeUsage(t *testing.T) {
	err := cmdServe(context.Background(), []string{"stray-operand"})
	if exitCode(err) != 2 {
		t.Fatalf("stray operand: exit %d (%v), want 2", exitCode(err), err)
	}
	// A bad -packed path is a runtime failure, not misuse.
	err = cmdServe(context.Background(), []string{"-packed", filepath.Join(t.TempDir(), "missing.cvqb")})
	if exitCode(err) != 1 {
		t.Fatalf("missing pack: exit %d (%v), want 1", exitCode(err), err)
	}
}

// TestCmdServeEndToEnd boots the real daemon on a loopback port with a
// packed extra collection, talks to it over HTTP, then cancels the
// context and expects a clean drain.
func TestCmdServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	packPath := filepath.Join(dir, "extra.cvqb")
	ext, err := core.BuildExtended("cmd-serve", 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(packPath)
	if err != nil {
		t.Fatal(err)
	}
	pw := dataset.NewPackWriter(f, ext.Name)
	for _, q := range ext.Questions {
		if err := pw.WriteQuestion(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon prints its bound address; capture stdout via a pipe.
	oldStdout := os.Stdout
	pr, pwipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pwipe
	t.Cleanup(func() { os.Stdout = oldStdout })

	logPath := filepath.Join(dir, "access.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-packed", packPath,
			"-accesslog", logPath,
			"-drain-timeout", "10s",
		})
	}()

	sc := bufio.NewScanner(pr)
	var baseURL string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			baseURL = strings.TrimSpace(line[i:])
			break
		}
	}
	if baseURL == "" {
		cancel()
		t.Fatalf("daemon never announced its address (scan err %v)", sc.Err())
	}

	resp, err := http.Get(baseURL + "/v1/questions?collection=packed")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	var qs struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qs.Total != ext.Len() {
		t.Fatalf("packed collection: status %d total %d, want 200/%d", resp.StatusCode, qs.Total, ext.Len())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	_ = pwipe.Close()

	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), `"path":"/v1/questions"`) {
		t.Errorf("access log missing the browse request:\n%s", logBytes)
	}
}

// TestServeTimeoutsDropSlowClients is the slowloris check of the
// daemon's HTTP server. A client that sends half a request header and
// then goes silent is disconnected once the header timeout passes,
// while a streamed run whose client pauses longer than both timeouts
// still completes: the server sets no WriteTimeout to cut it off.
func TestServeTimeoutsDropSlowClients(t *testing.T) {
	httpSrv := newHTTPServer(nil)
	if httpSrv.ReadHeaderTimeout != readHeaderTimeout || httpSrv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header=%v idle=%v, want %v/%v",
			httpSrv.ReadHeaderTimeout, httpSrv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if httpSrv.WriteTimeout != 0 || httpSrv.ReadTimeout != 0 {
		t.Fatalf("write=%v read=%v timeouts would cut long streams", httpSrv.WriteTimeout, httpSrv.ReadTimeout)
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := suite.NewServer(chipvqa.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	httpSrv.Handler = srv.Handler()
	// The same server with both timeouts shortened, so the test waits
	// out a timeout in a fraction of a second.
	const timeout = 100 * time.Millisecond
	httpSrv.ReadHeaderTimeout, httpSrv.IdleTimeout = timeout, timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	defer func() {
		_ = httpSrv.Close()
		<-errc
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: slowloris\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(20 * timeout)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("slowloris client still connected after %v", time.Since(start))
		}
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("slowloris client dropped after %v, before the %v header timeout", elapsed, timeout)
	}

	client := &http.Client{}
	defer client.CloseIdleConnections()
	resp, err := client.Post("http://"+ln.Addr().String()+"/v1/runs", "application/json", strings.NewReader(
		`{"kind":"extended","seed":"slow-reader","per_category":40,"shard_size":50,"models":["GPT4o"],"session":"slow","stream":"ndjson"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming POST = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) == 1 {
			time.Sleep(3 * timeout) // quiet for longer than either timeout
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut after %d lines: %v", len(lines), err)
	}
	var sum struct {
		Done   bool   `json:"done"`
		State  string `json:"state"`
		Events int    `json:"events"`
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Done || sum.State != "done" {
		t.Fatalf("last line %q is not a done summary (err %v)", lines[len(lines)-1], err)
	}
	if sum.Events != 5*40 || len(lines) != sum.Events+1 {
		t.Errorf("stream carried %d lines for %d events, want %d events", len(lines), sum.Events, 5*40)
	}
}

// TestExitCodes pins the process exit contract: 0 success, 1 runtime
// failure, 2 command-line misuse.
func TestExitCodes(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Fatalf("exitCode(nil) = %d, want 0", got)
	}
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Fatalf("exitCode(runtime error) = %d, want 1", got)
	}
	if got := exitCode(usagef("bad flags")); got != 2 {
		t.Fatalf("exitCode(usage error) = %d, want 2", got)
	}
	// Wrapped usage errors still map to 2.
	if got := exitCode(fmt.Errorf("outer: %w", usagef("inner"))); got != 2 {
		t.Fatalf("exitCode(wrapped usage error) = %d, want 2", got)
	}

	// Contradictory flags on a real command are usage errors too.
	for _, args := range [][]string{
		{"-stream"},
		{"-stream", "-eval", "-o", filepath.Join(t.TempDir(), "x.json")},
	} {
		if got := exitCode(cmdExtended(context.Background(), args)); got != 2 {
			t.Errorf("extended %v exits %d, want 2", args, got)
		}
	}
}
