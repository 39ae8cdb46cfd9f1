package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/visual"
)

// streamResult is one tenant's view of its run, collected from a
// goroutine (no t.Fatal off the test goroutine).
type streamResult struct {
	session string
	lines   []string
	err     error
}

// streamRunLines POSTs a streaming run and returns its event lines and
// terminal summary line, suitable for calling from worker goroutines.
func streamRunLines(ts *httptest.Server, spec string) ([]string, error) {
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("streaming POST = %d (%s)", resp.StatusCode, body)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty stream")
	}
	return lines, nil
}

// TestServeMultiTenantFairness runs 8 tenants concurrently over one
// shared worker pool: every session must complete (weighted FIFO — no
// starvation), and each session's event stream must be byte-identical
// to a sequential reference run, i.e. tenant interleaving never leaks
// into any tenant's observed ordering.
func TestServeMultiTenantFairness(t *testing.T) {
	const tenants = 8
	cfg := testConfig(t)
	cfg.MaxSessions = tenants
	_, ts := startServer(t, cfg)

	// Sequential reference: one tenant alone on the pool.
	ref, err := streamRunLines(ts, `{"models":["GPT4o","LLaVA-7b"],"session":"ref","stream":"ndjson"}`)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan streamResult, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		session := fmt.Sprintf("tenant-%02d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := fmt.Sprintf(`{"models":["GPT4o","LLaVA-7b"],"session":%q,"stream":"ndjson"}`, session)
			lines, err := streamRunLines(ts, spec)
			results <- streamResult{session: session, lines: lines, err: err}
		}()
	}
	wg.Wait()
	close(results)

	seen := 0
	for res := range results {
		seen++
		if res.err != nil {
			t.Errorf("session %s: %v", res.session, res.err)
			continue
		}
		if len(res.lines) != len(ref) {
			t.Errorf("session %s streamed %d lines, reference has %d", res.session, len(res.lines), len(ref))
			continue
		}
		// Events must match the reference byte-for-byte; the summary
		// line differs only in the run id.
		for j := 0; j < len(ref)-1; j++ {
			if res.lines[j] != ref[j] {
				t.Errorf("session %s event %d diverges from reference\ngot:  %s\nwant: %s",
					res.session, j, res.lines[j], ref[j])
				break
			}
		}
		last := res.lines[len(res.lines)-1]
		if !strings.Contains(last, `"done":true`) || !strings.Contains(last, `"state":"done"`) {
			t.Errorf("session %s ended without a done summary: %s", res.session, last)
		}
	}
	if seen != tenants {
		t.Fatalf("collected %d tenant results, want %d", seen, tenants)
	}

	// The pool must be whole again and no session budget leaked.
	var h struct {
		Sessions int `json:"sessions"`
		Active   int `json:"active"`
		PoolCap  int `json:"pool_cap"`
		PoolFree int `json:"pool_free"`
		Queued   int `json:"queued"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Sessions != 0 || h.Active != 0 || h.Queued != 0 {
		t.Errorf("after runs: sessions=%d active=%d queued=%d, want all 0", h.Sessions, h.Active, h.Queued)
	}
	if h.PoolFree != h.PoolCap {
		t.Errorf("pool leaked tokens: free %d of cap %d", h.PoolFree, h.PoolCap)
	}
}

// TestServeSessionCapRejects wedges MaxSessions tenants at the event
// gate and asserts a new tenant is turned away with 429 while an
// existing tenant may still queue more work.
func TestServeSessionCapRejects(t *testing.T) {
	const stopAt = 2
	cfg := testConfig(t)
	cfg.MaxSessions = 2
	cfg.WorkersPerSession = 1
	s, err := New(cfg)
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
		// The wedged runs only unwind by force-cancel, so keep the
		// graceful window short.
		dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s.Drain(dctx)
	})

	postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"cap-a"}`, http.StatusCreated)
	postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"cap-b"}`, http.StatusCreated)
	for i := 0; i < 2; i++ {
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Fatal("gate never reached")
		}
	}

	// A third tenant is over the cap.
	postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"cap-c"}`, http.StatusTooManyRequests)
	// An existing tenant is not: the cap counts sessions, not runs.
	postRun(t, ts, `{"models":["GPT4o"],"workers":1,"session":"cap-a"}`, http.StatusCreated)
}

// TestServeImageHammerHoldsBudget hammers the image endpoint from many
// goroutines against a tightly budgeted scene cache, while an eval run
// streams alongside, and asserts the cache's high-water mark never
// exceeded its budget: caching encoded PNG bytes must uphold the LRU
// invariant under multi-tenant load. Evaluation itself makes no cache
// lookups; the concurrent run only adds load on the server.
func TestServeImageHammerHoldsBudget(t *testing.T) {
	const budget = 1 << 20
	cache := visual.NewSceneCache()
	cache.SetBudget(budget)
	cfg := testConfig(t)
	cfg.Cache = cache
	_, ts := startServer(t, cfg)

	var qs struct {
		Questions []struct {
			ID string `json:"id"`
		} `json:"questions"`
	}
	getJSON(t, ts.URL+"/v1/questions?limit=24", http.StatusOK, &qs)
	if len(qs.Questions) == 0 {
		t.Fatal("no questions to hammer")
	}

	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		factor := []int{1, 2, 4, 8}[g%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs.Questions {
				url := fmt.Sprintf("%s/v1/questions/%s/image.png?factor=%d", ts.URL, q.ID, factor)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s = %d", url, resp.StatusCode)
					return
				}
			}
		}()
	}
	// An eval run streams at the same time; it competes for the
	// server, not for the cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := streamRunLines(ts, `{"models":["GPT4o"],"session":"hammer","stream":"ndjson"}`)
		if err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := cache.Stats()
	if stats.Budget != budget {
		t.Fatalf("budget = %d, want %d", stats.Budget, budget)
	}
	if stats.PeakBytes > stats.Budget {
		t.Errorf("cache peak %d exceeded budget %d under load", stats.PeakBytes, stats.Budget)
	}
	if stats.PeakBytes == 0 {
		t.Error("cache never charged any bytes — hammer did not exercise the cache")
	}
}
