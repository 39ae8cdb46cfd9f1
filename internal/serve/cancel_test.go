package serve

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
)

// prefixReportBytes marshals the offline reference truncated to the
// first n (model-major) results — the report a cancelled single-model
// run must record.
func prefixReportBytes(t *testing.T, full []*eval.Report, n int) []byte {
	t.Helper()
	if len(full) != 1 {
		t.Fatalf("prefix helper handles single-model runs, got %d reports", len(full))
	}
	trunc := &eval.Report{ModelName: full[0].ModelName, Results: full[0].Results[:n]}
	body, err := MarshalReports([]*eval.Report{trunc})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// gateServer builds a server whose eventGate blocks the run pipeline
// just before appending event `stopAt`, until the run's own context is
// cancelled. reached receives the run id once the gate is hit.
func gateServer(t *testing.T, stopAt int) (*Server, *httptest.Server, chan string) {
	t.Helper()
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan string, 8)
	s.eventGate = func(ctx context.Context, runID string, seq int) {
		if seq == stopAt {
			reached <- runID
			<-ctx.Done()
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(dctx)
	})
	return s, ts, reached
}

// TestServeDisconnectRecordsPrefix closes a streaming client mid-run
// and asserts the registry records the deterministic prefix: exactly
// the events delivered before the cancellation point, byte-identical
// to the offline report truncated at that point.
func TestServeDisconnectRecordsPrefix(t *testing.T) {
	const stopAt = 5
	offline := offlineReports(t, []string{"GPT4o"}, 1)
	s, ts, reached := gateServer(t, stopAt)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"models":["GPT4o"],"workers":1,"session":"dc","stream":"ndjson"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Read the prefix the server managed to flush, then hang up.
	sc := bufio.NewScanner(resp.Body)
	var got []string
	for len(got) < stopAt && sc.Scan() {
		got = append(got, sc.Text())
	}
	if len(got) != stopAt {
		t.Fatalf("read %d events before gate, want %d (scan err %v)", len(got), stopAt, sc.Err())
	}
	var runID string
	select {
	case runID = <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("gate never reached")
	}
	_ = resp.Body.Close() // the disconnect — cancels the request-scoped run

	rn, ok := s.reg.get(runID)
	if !ok {
		t.Fatalf("run %s not registered", runID)
	}
	select {
	case <-rn.done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not unwind after disconnect")
	}

	events, state, _ := rn.snapshot(0)
	if state != runCancelled {
		t.Fatalf("run state %s, want cancelled", state)
	}
	// The gate blocked *inside* the observer for event stopAt; the
	// cancellation released it, that event was appended, and delivery
	// stopped deterministically right after — prefix = stopAt+1.
	if len(events) != stopAt+1 {
		t.Fatalf("recorded %d events, want %d", len(events), stopAt+1)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.QuestionID != offline[0].Results[i].QuestionID || ev.Correct != offline[0].Results[i].Correct {
			t.Errorf("event %d (%s) differs from offline result (%s)", i, ev.QuestionID, offline[0].Results[i].QuestionID)
		}
	}
	want := prefixReportBytes(t, offline, stopAt+1)
	if got := fetchReport(t, ts, runID); !bytes.Equal(got, want) {
		t.Errorf("prefix report differs from truncated offline report\ngot:  %s\nwant: %s", got, want)
	}
}

// TestServeDeleteCancelsRun cancels a detached run via DELETE and
// asserts the same deterministic-prefix contract, plus the 409 on
// fetching a report mid-run.
func TestServeDeleteCancelsRun(t *testing.T) {
	const stopAt = 7
	offline := offlineReports(t, []string{"GPT4o"}, 1)
	_, ts, reached := gateServer(t, stopAt)

	st := postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"del"}`, http.StatusCreated)
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("gate never reached")
	}

	// Mid-run the report is not available yet.
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-run report = %d, want 409", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID+"?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}

	end := waitTerminal(t, ts, st.ID)
	if end.State != "cancelled" {
		t.Fatalf("state %s, want cancelled", end.State)
	}
	if end.Events != stopAt+1 {
		t.Fatalf("recorded %d events, want %d", end.Events, stopAt+1)
	}
	want := prefixReportBytes(t, offline, stopAt+1)
	if got := fetchReport(t, ts, st.ID); !bytes.Equal(got, want) {
		t.Errorf("DELETE prefix report differs from truncated offline report")
	}

	// Cancelling again is idempotent.
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second DELETE = %d, want 202", resp.StatusCode)
	}
}

// TestServeDrainGraceful lets in-flight runs finish: drain must wait
// for them (forced == 0), refuse new runs with 503, and leave complete
// reports behind.
func TestServeDrainGraceful(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	b, _ := fixture(t)

	st := postRun(t, ts, `{"models":["GPT4o"],"session":"drain-a"}`, http.StatusCreated)
	st2 := postRun(t, ts, `{"models":["LLaVA-7b"],"session":"drain-b"}`, http.StatusCreated)

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if forced := s.Drain(dctx); forced != 0 {
		t.Fatalf("graceful drain force-cancelled %d runs", forced)
	}
	if !s.reg.isDraining() {
		t.Error("server not marked draining")
	}

	for _, id := range []string{st.ID, st2.ID} {
		end := waitTerminal(t, ts, id)
		if end.State != "done" || end.Events != b.Len() {
			t.Errorf("run %s ended %s with %d events, want done/%d", id, end.State, end.Events, b.Len())
		}
	}

	// Draining servers refuse new runs but still serve reads.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"models":["GPT4o"]}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "draining" {
		t.Errorf("healthz status %q, want draining", h.Status)
	}
}

// TestServeDrainForcesStragglers drains while runs are wedged at the
// gate: the deadline passes, drain force-cancels them, every run still
// records its deterministic prefix, and the whole drain completes
// promptly after the deadline rather than hanging.
func TestServeDrainForcesStragglers(t *testing.T) {
	const stopAt = 4
	offline := offlineReports(t, []string{"GPT4o"}, 1)
	s, ts, reached := gateServer(t, stopAt)

	ids := make([]string, 3)
	for i := range ids {
		ids[i] = postRun(t, ts,
			`{"models":["GPT4o"],"workers":1,"session":"wedge-`+string(rune('a'+i))+`"}`,
			http.StatusCreated).ID
	}
	for range ids {
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Fatal("gate never reached for all runs")
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	forced := s.Drain(dctx)
	if forced != len(ids) {
		t.Fatalf("forced %d runs, want %d", forced, len(ids))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced drain took %s", elapsed)
	}

	want := prefixReportBytes(t, offline, stopAt+1)
	for _, id := range ids {
		end := waitTerminal(t, ts, id)
		if end.State != "cancelled" || end.Events != stopAt+1 {
			t.Errorf("run %s ended %s with %d events, want cancelled/%d", id, end.State, end.Events, stopAt+1)
		}
		if got := fetchReport(t, ts, id); !bytes.Equal(got, want) {
			t.Errorf("run %s prefix report differs from truncated offline report", id)
		}
	}
}

// TestServeStreamFollowsDrain attaches a follower to a detached run,
// then drains: the follower's stream must end with a summary (not just
// the connection dropping) once the run is force-cancelled.
func TestServeStreamFollowsDrain(t *testing.T) {
	const stopAt = 3
	s, ts, reached := gateServer(t, stopAt)
	st := postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"follow"}`, http.StatusCreated)
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("gate never reached")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var lines []string
	var scanErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
		if err != nil {
			scanErr = err
			return
		}
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		scanErr = sc.Err()
	}()

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Drain(dctx)
	wg.Wait()
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if len(lines) != stopAt+2 { // stopAt+1 events + summary
		t.Fatalf("follower saw %d lines, want %d", len(lines), stopAt+2)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"done":true`) || !strings.Contains(last, `"state":"cancelled"`) {
		t.Errorf("follower stream ended without a cancelled summary: %s", last)
	}
}
