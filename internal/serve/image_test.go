package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/visual"
)

// imageDigest is the SHA-256 of every standard question's image.png
// body at factors 1, 8 and 32, each preceded by an "id@factor length"
// line, in question order. It pins the wire bytes of the image
// endpoint: any change to rendering, downsampling, PNG encoding or the
// cache in front of them that alters a single served byte fails
// TestServeImageBytesPinned.
const imageDigest = "8d3632fb5e9a07d8ab4753e8f22802cb98f032d82c9a54428038fd1e91ed66cd"

// getImage fetches one question image over HTTP and returns its body.
func getImage(t *testing.T, ts *httptest.Server, id string, factor int) []byte {
	t.Helper()
	url := fmt.Sprintf("%s/v1/questions/%s/image.png?factor=%d", ts.URL, id, factor)
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
	return body
}

func TestServeImageBytesPinned(t *testing.T) {
	cfg := testConfig(t)
	cfg.Cache = visual.NewSceneCache()
	_, ts := startServer(t, cfg)
	h := sha256.New()
	for _, q := range cfg.Benchmark.Questions {
		for _, f := range []int{1, 8, 32} {
			body := getImage(t, ts, q.ID, f)
			fmt.Fprintf(h, "%s@%d %d\n", q.ID, f, len(body))
			h.Write(body)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != imageDigest {
		t.Errorf("image.png digest %s, want %s", got, imageDigest)
	}
}

// TestServeImageRetention serves every standard question at 1x and 8x
// through an unbudgeted cache: it must retain only the encoded bytes,
// well under 1 MiB, and answer a second pass entirely from the cache.
func TestServeImageRetention(t *testing.T) {
	cfg := testConfig(t)
	cache := visual.NewSceneCache()
	cfg.Cache = cache
	_, ts := startServer(t, cfg)
	pass := func() {
		for _, q := range cfg.Benchmark.Questions {
			for _, f := range []int{1, 8} {
				getImage(t, ts, q.ID, f)
			}
		}
	}
	pass()
	first := cache.Stats()
	t.Logf("one pass retains %d bytes in %d entries", first.Bytes, first.Misses)
	if first.Bytes >= 1<<20 {
		t.Errorf("cache retains %d bytes after one pass, want under 1 MiB", first.Bytes)
	}
	pass()
	st := cache.Stats()
	if st.Misses != first.Misses || st.Hits != first.Hits+first.Misses || st.Bytes != first.Bytes {
		t.Errorf("second pass was not all hits: %+v after the first pass, %+v after the second", first, st)
	}
}

// BenchmarkServeQuestionImage drives GET /v1/questions/{id}/image.png
// through the server's handler, cycling over every standard question.
// cold empties the scene cache before each request, so every request
// renders, downsamples and encodes; warm serves every request from the
// cache after one priming pass.
func BenchmarkServeQuestionImage(b *testing.B) {
	cfg := testConfig(b)
	cache := visual.NewSceneCache()
	cfg.Cache = cache
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	qs := cfg.Benchmark.Questions
	get := func(b *testing.B, i, factor int) {
		url := fmt.Sprintf("/v1/questions/%s/image.png?factor=%d", qs[i%len(qs)].ID, factor)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", url, rec.Code)
		}
	}
	for _, factor := range []int{1, 8} {
		b.Run(fmt.Sprintf("cold/%dx", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache.Reset()
				b.StartTimer()
				get(b, i, factor)
			}
		})
		b.Run(fmt.Sprintf("warm/%dx", factor), func(b *testing.B) {
			cache.Reset()
			for i := range qs {
				get(b, i, factor)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(b, i, factor)
			}
		})
	}
}
