package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// adaptiveSpec is the small adaptive run the conformance tests share:
// three models over a tiny extended fold, so the calibration grid and
// tournament both finish in milliseconds.
const adaptiveSeed = "srv-adaptive"
const adaptivePerCategory = 2

func adaptiveSpec(extra string) string {
	return `{"kind":"adaptive","seed":"` + adaptiveSeed + `","per_category":2,` +
		`"models":["GPT4o","LLaVA-7b","kosmos-2"]` + extra + `}`
}

func TestServeAdaptiveValidation(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	bad := []string{
		`{"kind":"adaptive","collection":"standard"}`,
		`{"kind":"adaptive","shard_size":8}`,
		`{"kind":"adaptive","per_category":-1}`,
		`{"kind":"adaptive","per_category":100000}`,
	}
	for _, spec := range bad {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s = %d, want 400", spec, resp.StatusCode)
		}
	}
}

// TestServeAdaptiveRunLifecycle drives a detached adaptive run to
// completion: the event log carries ability annotations and per-model
// stop reasons, stays within the tournament's question budget, and the
// canonical report is byte-reconstructible from the streamed events
// (the same stream==report contract as static runs).
func TestServeAdaptiveRunLifecycle(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	fold, err := core.BuildExtended(adaptiveSeed, adaptivePerCategory)
	if err != nil {
		t.Fatal(err)
	}
	st := postRun(t, ts, adaptiveSpec(`,"session":"adp"`), http.StatusCreated)
	if st.Kind != "adaptive" {
		t.Fatalf("launch kind %q, want adaptive", st.Kind)
	}
	end := waitTerminal(t, ts, st.ID)
	if end.State != "done" {
		t.Fatalf("run ended %s (%s)", end.State, end.Error)
	}
	bank := fold.Len()
	budget := 3 * bank / 3 // default TotalBudget: a third of the 3-model grid
	if end.Events == 0 || end.Events > budget {
		t.Fatalf("adaptive run recorded %d events, want within (0, %d]", end.Events, budget)
	}

	// Replay the event log and check the adaptive annotations.
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	_ = resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	eventLines := lines[:len(lines)-1] // summary closes the stream
	if len(eventLines) != end.Events {
		t.Fatalf("replayed %d events, status says %d", len(eventLines), end.Events)
	}
	lastStop := make(map[string]string)
	asked := make(map[string]int)
	for i, line := range eventLines {
		var ev RunEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Ability == nil || ev.AbilitySE == nil {
			t.Fatalf("event %d lacks ability annotations: %s", i, line)
		}
		if *ev.AbilitySE <= 0 {
			t.Fatalf("event %d has non-positive ability_se %v", i, *ev.AbilitySE)
		}
		asked[ev.Model]++
		lastStop[ev.Model] = ev.StopReason
	}
	for _, m := range st.Models {
		if asked[m] == 0 {
			t.Errorf("model %s was never asked a question", m)
		}
		if lastStop[m] == "" {
			t.Errorf("model %s's final event carries no stop_reason", m)
		}
	}

	// Byte-identity: the canonical report is reconstructible from the
	// stream, exactly as for static runs.
	want := fetchReport(t, ts, st.ID)
	got := reconstructReportBytes(t, st.Models, eventLines)
	if !bytes.Equal(got, want) {
		t.Errorf("adaptive stream does not reconstruct the report\ngot:  %s\nwant: %s", got, want)
	}
}

// TestServeAdaptiveDeterministicAcrossWorkers streams the same adaptive
// spec at workers 1 and 2: the event lines (including every ability
// annotation) and the final reports must be byte-identical.
func TestServeAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	ref, _ := collectNDJSON(t, ts, adaptiveSpec(`,"workers":1,"stream":"ndjson","session":"w1"`))
	got, _ := collectNDJSON(t, ts, adaptiveSpec(`,"workers":2,"stream":"ndjson","session":"w2"`))
	if len(ref) != len(got) {
		t.Fatalf("workers=1 streamed %d events, workers=2 streamed %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("event %d differs across worker counts\nw1: %s\nw2: %s", i, ref[i], got[i])
		}
	}
}

// TestServeAdaptiveDisconnectPrefix hangs up a streaming adaptive run
// mid-tournament and asserts the recorded prefix is byte-identical to
// the same prefix of an uninterrupted run with the identical spec.
func TestServeAdaptiveDisconnectPrefix(t *testing.T) {
	const stopAt = 4
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// One-shot gate: only the first run to produce an event is wedged at
	// stopAt; the reference run afterwards must flow freely.
	var mu sync.Mutex
	gated := ""
	reached := make(chan struct{})
	s.eventGate = func(ctx context.Context, runID string, seq int) {
		mu.Lock()
		if gated == "" {
			gated = runID
		}
		hit := runID == gated && seq == stopAt
		mu.Unlock()
		if hit {
			close(reached)
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

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(adaptiveSpec(`,"workers":1,"stream":"ndjson","session":"dc"`)))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var prefix []string
	for len(prefix) < stopAt && sc.Scan() {
		prefix = append(prefix, sc.Text())
	}
	if len(prefix) != stopAt {
		t.Fatalf("read %d events before gate, want %d (scan err %v)", len(prefix), stopAt, sc.Err())
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("gate never reached")
	}
	_ = resp.Body.Close() // disconnect: cancels the request-scoped run

	mu.Lock()
	runID := gated
	mu.Unlock()
	rn, ok := s.reg.get(runID)
	if !ok {
		t.Fatalf("run %s not registered", runID)
	}
	select {
	case <-rn.done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not unwind after disconnect")
	}
	events, state := snapshotEvents(t, rn)
	if state != runCancelled {
		t.Fatalf("run state %s, want cancelled", state)
	}
	if len(events) != stopAt+1 {
		t.Fatalf("recorded %d events, want %d", len(events), stopAt+1)
	}

	// The uninterrupted reference run (same server: calibration cache is
	// warm, gate no longer fires) must share the recorded prefix byte
	// for byte.
	full, _ := collectNDJSON(t, ts, adaptiveSpec(`,"workers":1,"stream":"ndjson","session":"ref"`))
	if len(full) <= stopAt {
		t.Fatalf("reference run streamed only %d events", len(full))
	}
	for i, ev := range events {
		body, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != full[i] {
			t.Fatalf("prefix event %d differs from uninterrupted run\ncancelled: %s\nfull:      %s", i, body, full[i])
		}
	}
}

// TestServeRunListFilters launches one run of each kind plus a
// cancelled one and exercises the ?state= / ?kind= filters and their
// error paths. Listing order is creation order.
func TestServeRunListFilters(t *testing.T) {
	s, ts := startServer(t, testConfig(t))
	evalID := postRun(t, ts, `{"models":["GPT4o"],"session":"lf"}`, http.StatusCreated).ID
	extID := postRun(t, ts, `{"kind":"extended","seed":"lf","per_category":1,"models":["GPT4o"],"session":"lf"}`, http.StatusCreated).ID
	adpID := postRun(t, ts, adaptiveSpec(`,"session":"lf"`), http.StatusCreated).ID
	for _, id := range []string{evalID, extID, adpID} {
		if st := waitTerminal(t, ts, id); st.State != "done" {
			t.Fatalf("run %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	// A cancelled eval run for the state filter. Wedge it on the worker
	// grant? Simpler: cancel after launch and wait for terminal.
	st := postRun(t, ts, `{"models":["GPT4o"],"session":"lf"}`, http.StatusCreated)
	if rn, ok := s.reg.get(st.ID); ok {
		rn.cancel()
	}
	cancelledState := waitTerminal(t, ts, st.ID).State

	type listing struct {
		Runs []RunStatus `json:"runs"`
	}
	ids := func(l listing) []string {
		out := make([]string, len(l.Runs))
		for i, r := range l.Runs {
			out[i] = r.ID
		}
		return out
	}

	var all listing
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, &all)
	if got, want := ids(all), []string{evalID, extID, adpID, st.ID}; len(got) != 4 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("unfiltered listing %v, want creation order %v", got, want)
	}

	var adp listing
	getJSON(t, ts.URL+"/v1/runs?kind=adaptive", http.StatusOK, &adp)
	if len(adp.Runs) != 1 || adp.Runs[0].ID != adpID {
		t.Errorf("kind=adaptive listing %v", ids(adp))
	}
	var ext listing
	getJSON(t, ts.URL+"/v1/runs?kind=extended", http.StatusOK, &ext)
	if len(ext.Runs) != 1 || ext.Runs[0].ID != extID {
		t.Errorf("kind=extended listing %v", ids(ext))
	}
	var ev listing
	getJSON(t, ts.URL+"/v1/runs?kind=eval", http.StatusOK, &ev)
	if len(ev.Runs) != 2 || ev.Runs[0].ID != evalID || ev.Runs[1].ID != st.ID {
		t.Errorf("kind=eval listing %v", ids(ev))
	}
	wantDone := 3
	if cancelledState == "done" { // the cancel raced a fast run finishing
		wantDone = 4
	}
	var done listing
	getJSON(t, ts.URL+"/v1/runs?state=done", http.StatusOK, &done)
	if len(done.Runs) != wantDone {
		t.Errorf("state=done listed %d runs, want %d", len(done.Runs), wantDone)
	}
	if cancelledState == "cancelled" {
		var can listing
		getJSON(t, ts.URL+"/v1/runs?state=cancelled&kind=eval", http.StatusOK, &can)
		if len(can.Runs) != 1 || can.Runs[0].ID != st.ID {
			t.Errorf("state=cancelled&kind=eval listing %v", ids(can))
		}
	}
	var none listing
	getJSON(t, ts.URL+"/v1/runs?state=queued", http.StatusOK, &none)
	if none.Runs == nil || len(none.Runs) != 0 {
		t.Errorf("state=queued should be an empty (non-null) list, got %v", none.Runs)
	}
	getJSON(t, ts.URL+"/v1/runs?state=paused", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/runs?kind=sprint", http.StatusBadRequest, nil)
}
