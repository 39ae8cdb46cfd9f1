package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/vlm"
)

// Shared fixture: the benchmark and zoo are expensive enough to build
// once per test binary. Both are read-only after construction, so every
// test server may share them.
var (
	fixtureOnce   sync.Once
	fixtureBench  *dataset.Benchmark
	fixtureModels []eval.Model
	fixtureErr    error
)

func fixture(t testing.TB) (*dataset.Benchmark, []eval.Model) {
	t.Helper()
	fixtureOnce.Do(func() {
		b, err := core.BuildBenchmark()
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureBench = b
		fixtureModels = vlm.NewZoo(b).EvalModels()
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBench, fixtureModels
}

// testConfig is the baseline server configuration for the suite.
func testConfig(t testing.TB) Config {
	t.Helper()
	b, models := fixture(t)
	return Config{
		Benchmark:         b,
		Challenge:         b.Challenge(),
		Models:            models,
		PoolWorkers:       4,
		MaxSessions:       8,
		WorkersPerSession: 2,
	}
}

// startServer builds the server, exposes it over httptest and wires
// teardown: close the listener, then drain every run.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if forced := s.Drain(dctx); forced != 0 {
			t.Errorf("teardown drain force-cancelled %d run(s)", forced)
		}
	})
	return s, ts
}

// getJSON fetches url and decodes the body into out, asserting status.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

// postRun launches a run and returns its decoded status, asserting the
// HTTP status code.
func postRun(t *testing.T, ts *httptest.Server, spec string, wantStatus int) RunStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/runs %s = %d, want %d (body %s)", spec, resp.StatusCode, wantStatus, body)
	}
	var st RunStatus
	if wantStatus == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad run status %q: %v", body, err)
		}
	}
	return st
}

// waitTerminal polls a run's status until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st RunStatus
		getJSON(t, ts.URL+"/v1/runs/"+id, http.StatusOK, &st)
		switch st.State {
		case "done", "cancelled", "failed":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeHealth(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	var h struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
		PoolCap  int    `json:"pool_cap"`
		PoolFree int    `json:"pool_free"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Errorf("status %q, want ok", h.Status)
	}
	if h.PoolCap != 4 || h.PoolFree != 4 {
		t.Errorf("pool %d/%d, want 4/4", h.PoolFree, h.PoolCap)
	}
}

func TestServeCollectionsAndModels(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	b, models := fixture(t)
	var cols struct {
		Collections []struct {
			Name      string `json:"name"`
			Questions int    `json:"questions"`
		} `json:"collections"`
	}
	getJSON(t, ts.URL+"/v1/collections", http.StatusOK, &cols)
	if len(cols.Collections) != 2 {
		t.Fatalf("%d collections, want 2", len(cols.Collections))
	}
	if cols.Collections[0].Name != "standard" || cols.Collections[0].Questions != b.Len() {
		t.Errorf("first collection %+v, want standard/%d", cols.Collections[0], b.Len())
	}
	if cols.Collections[1].Name != "challenge" {
		t.Errorf("second collection %q, want challenge", cols.Collections[1].Name)
	}
	var ms struct {
		Models []string `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", http.StatusOK, &ms)
	if len(ms.Models) != len(models) {
		t.Fatalf("%d models, want %d", len(ms.Models), len(models))
	}
	for i, m := range models {
		if ms.Models[i] != m.Name() {
			t.Errorf("model[%d] = %q, want %q", i, ms.Models[i], m.Name())
		}
	}
}

func TestServeQuestionListFilters(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	b, _ := fixture(t)

	type listing struct {
		Collection string `json:"collection"`
		Total      int    `json:"total"`
		Count      int    `json:"count"`
		Questions  []struct {
			ID       string `json:"id"`
			Category string `json:"category"`
			Type     string `json:"type"`
		} `json:"questions"`
	}

	var all listing
	getJSON(t, ts.URL+"/v1/questions", http.StatusOK, &all)
	if all.Total != b.Len() || all.Count != b.Len() {
		t.Errorf("unfiltered total/count %d/%d, want %d", all.Total, all.Count, b.Len())
	}

	var digital listing
	getJSON(t, ts.URL+"/v1/questions?category=Digital", http.StatusOK, &digital)
	wantDigital := len(b.Filter(func(q *dataset.Question) bool { return q.Category == dataset.Digital }))
	if digital.Total != wantDigital {
		t.Errorf("digital total %d, want %d", digital.Total, wantDigital)
	}
	for _, q := range digital.Questions {
		if q.Category != "Digital" {
			t.Errorf("category filter leaked %s (%s)", q.ID, q.Category)
		}
	}
	// Full Table I names resolve too, case-insensitively.
	var digital2 listing
	getJSON(t, ts.URL+"/v1/questions?category=digital+design", http.StatusOK, &digital2)
	if digital2.Total != wantDigital {
		t.Errorf("full-name category total %d, want %d", digital2.Total, wantDigital)
	}

	var sa listing
	getJSON(t, ts.URL+"/v1/questions?type=SA", http.StatusOK, &sa)
	for _, q := range sa.Questions {
		if q.Type != "SA" {
			t.Errorf("type filter leaked %s (%s)", q.ID, q.Type)
		}
	}

	// Paging: limit/offset windows tile the unfiltered listing.
	var page1, page2 listing
	getJSON(t, ts.URL+"/v1/questions?limit=3", http.StatusOK, &page1)
	getJSON(t, ts.URL+"/v1/questions?limit=3&offset=3", http.StatusOK, &page2)
	if page1.Count != 3 || page2.Count != 3 {
		t.Fatalf("page counts %d/%d, want 3/3", page1.Count, page2.Count)
	}
	if page1.Questions[0].ID != all.Questions[0].ID || page2.Questions[0].ID != all.Questions[3].ID {
		t.Errorf("paging windows misaligned: %s / %s", page1.Questions[0].ID, page2.Questions[0].ID)
	}
	var tail listing
	getJSON(t, fmt.Sprintf("%s/v1/questions?offset=%d", ts.URL, b.Len()+10), http.StatusOK, &tail)
	if tail.Count != 0 || tail.Total != b.Len() {
		t.Errorf("past-the-end offset count/total %d/%d, want 0/%d", tail.Count, tail.Total, b.Len())
	}

	// Challenge collection serves the rewritten questions.
	var ch listing
	getJSON(t, ts.URL+"/v1/questions?collection=challenge&type=MC", http.StatusOK, &ch)
	if ch.Total != 0 {
		t.Errorf("challenge collection still has %d MC questions", ch.Total)
	}

	// Error paths.
	getJSON(t, ts.URL+"/v1/questions?category=quantum", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions?type=essay", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions?limit=-1", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions?offset=x", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions?collection=nope", http.StatusNotFound, nil)
}

func TestServeQuestionGet(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	b, _ := fixture(t)
	q0 := b.Questions[0]
	var doc struct {
		ID       string   `json:"id"`
		Category string   `json:"category"`
		Type     string   `json:"type"`
		Prompt   string   `json:"prompt"`
		Choices  []string `json:"choices"`
	}
	getJSON(t, ts.URL+"/v1/questions/"+q0.ID, http.StatusOK, &doc)
	if doc.ID != q0.ID || doc.Prompt != q0.Prompt || len(doc.Choices) != len(q0.Choices) {
		t.Errorf("question doc %+v does not match %s", doc, q0.ID)
	}
	if doc.Category != q0.Category.Short() || doc.Type != q0.Type.String() {
		t.Errorf("doc category/type %s/%s, want %s/%s", doc.Category, doc.Type, q0.Category.Short(), q0.Type.String())
	}
	getJSON(t, ts.URL+"/v1/questions/no-such-id", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/questions/"+q0.ID+"?collection=nope", http.StatusNotFound, nil)
}

func TestServeQuestionImage(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	b, _ := fixture(t)
	id := b.Questions[0].ID

	fetch := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
			t.Fatalf("Content-Type %q", ct)
		}
		return body
	}

	full := fetch(ts.URL + "/v1/questions/" + id + "/image.png")
	img, err := png.Decode(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("served PNG does not decode: %v", err)
	}
	small := fetch(ts.URL + "/v1/questions/" + id + "/image.png?factor=8")
	simg, err := png.Decode(bytes.NewReader(small))
	if err != nil {
		t.Fatalf("factor=8 PNG does not decode: %v", err)
	}
	if got, want := simg.Bounds().Dx(), img.Bounds().Dx()/8; got != want {
		t.Errorf("factor=8 width %d, want %d", got, want)
	}
	// Cached encode: byte-identical on refetch.
	if again := fetch(ts.URL + "/v1/questions/" + id + "/image.png"); !bytes.Equal(full, again) {
		t.Error("image bytes changed between fetches")
	}

	getJSON(t, ts.URL+"/v1/questions/"+id+"/image.png?factor=3", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions/"+id+"/image.png?factor=-8", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/questions/no-such-id/image.png", http.StatusNotFound, nil)
}

// TestServePackedCollection drives the pack-backed path: an extended
// fold round-trips through the CVQB codec via StreamPack and is served
// as an extra collection, browsable and evaluable by name.
func TestServePackedCollection(t *testing.T) {
	ext, err := core.BuildExtended("serve-pack", 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pw := dataset.NewPackWriter(&buf, ext.Name)
	for _, q := range ext.Questions {
		if err := pw.WriteQuestion(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	packed := &dataset.Benchmark{Name: "packed"}
	if err := dataset.StreamPack(bytes.NewReader(buf.Bytes()), 4, func(sh dataset.Shard) error {
		packed.Questions = append(packed.Questions, sh.Questions...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.Extra = []Collection{{Name: "packed", Benchmark: packed}}
	_, ts := startServer(t, cfg)

	var listing struct {
		Total int `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/questions?collection=packed", http.StatusOK, &listing)
	if listing.Total != ext.Len() {
		t.Fatalf("packed collection lists %d questions, want %d", listing.Total, ext.Len())
	}
	st := postRun(t, ts, `{"collection":"packed","models":["GPT4o"]}`, http.StatusCreated)
	end := waitTerminal(t, ts, st.ID)
	if end.State != "done" || end.Events != ext.Len() {
		t.Fatalf("packed run ended %s with %d events, want done/%d", end.State, end.Events, ext.Len())
	}
}

func TestServeRunValidation(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	bad := []string{
		`{"workers":-1}`,
		`{"workers":99999}`,
		`{"models":["NoSuchModel"]}`,
		`{"models":["GPT4o","GPT4o"]}`,
		`{"kind":"sprint"}`,
		`{"stream":"grpc"}`,
		`{"kind":"extended","collection":"standard"}`,
		`{"seed":"x"}`,
		`{"per_category":3}`,
		`{"kind":"extended","per_category":-2}`,
		`{"kind":"extended","per_category":100000}`,
		`{"kind":"extended","shard_size":-1}`,
		`{"kind":"challenge","collection":"standard"}`,
		`{"collection":"nope"}`,
		`{"downsample":3}`,
		`{"downsample":-8}`,
		`{"session":"a\u0001b"}`,
		`{"session":"` + strings.Repeat("s", 65) + `"}`,
		`{"frobnicate":true}`,
		`not json`,
		``,
	}
	for _, spec := range bad {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q = %d (%s), want 400", spec, resp.StatusCode, body)
		}
	}
	var h struct {
		Runs int `json:"runs"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Runs != 0 {
		t.Errorf("rejected specs still registered %d runs", h.Runs)
	}
}

func TestServeRunDetachedLifecycle(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	b, _ := fixture(t)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"models":["GPT4o"],"session":"lifecycle"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d (%s)", resp.StatusCode, body)
	}
	var st RunStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/runs/"+st.ID {
		t.Errorf("Location %q, want /v1/runs/%s", loc, st.ID)
	}
	if st.Session != "lifecycle" || st.Kind != "eval" || st.Collection != "standard" {
		t.Errorf("launch status %+v", st)
	}
	if len(st.Models) != 1 || st.Models[0] != "GPT4o" {
		t.Errorf("resolved models %v", st.Models)
	}

	end := waitTerminal(t, ts, st.ID)
	if end.State != "done" {
		t.Fatalf("run ended %s (%s)", end.State, end.Error)
	}
	if end.Events != b.Len() {
		t.Errorf("run recorded %d events, want %d", end.Events, b.Len())
	}

	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs", http.StatusOK, &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID {
		t.Errorf("run listing %+v", list.Runs)
	}
}

func TestServeRunNotFound(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	getJSON(t, ts.URL+"/v1/runs/r9999", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/runs/r9999/events", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/runs/r9999/report", http.StatusNotFound, nil)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/r9999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown run = %d, want 404", resp.StatusCode)
	}
}

func TestServeMethodAndRouteErrors(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/questions", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/questions = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d, want 404", resp.StatusCode)
	}
}
