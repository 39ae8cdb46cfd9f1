package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzEventJSONMatchesMarshal holds appendEventJSON to json.Marshal
// byte for byte over arbitrary events. The seed corpus under
// testdata/fuzz/ covers the HTML-sensitive characters, control bytes,
// invalid UTF-8, U+2028/2029, ±0, subnormals and both sides of the
// 1e-6 and 1e21 float-format boundaries. Bit 0 of present sets Ability
// and bit 1 sets AbilitySE; json.Marshal rejects non-finite floats, so
// those inputs are skipped.
func FuzzEventJSONMatchesMarshal(f *testing.F) {
	f.Add(0, "GPT4o", "d01", "Digital", "MC", "b) F = A + B + C", true, 0.0, 0.0, uint8(0), "")
	f.Add(7, "LLaVA-7b", "xp-srv-adaptive-00", "Physical", "SA", "6.58 units", false,
		-0.5959140735721916, 0.8137045130041916, uint8(3), "budget")
	f.Fuzz(func(t *testing.T, seq int, model, questionID, category, typ, response string,
		correct bool, ability, abilitySE float64, present uint8, stopReason string) {
		ev := RunEvent{
			Seq:        seq,
			Model:      model,
			QuestionID: questionID,
			Category:   category,
			Type:       typ,
			Response:   response,
			Correct:    correct,
			StopReason: stopReason,
		}
		if present&1 != 0 {
			ev.Ability = &ability
		}
		if present&2 != 0 {
			ev.AbilitySE = &abilitySE
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Skip() // NaN or ±Inf: outside appendEventJSON's precondition
		}
		prefix := []byte("prefix\n")
		got := appendEventJSON(append([]byte(nil), prefix...), &ev)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("appendEventJSON clobbered dst: %q", got)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Fatalf("appendEventJSON differs from json.Marshal\ngot:  %s\nwant: %s", got, want)
		}
	})
}

// TestRunNotifyWakesOnlyWatchers pins the watched-notify rule: a change
// replaces and closes the notify channel only if a snapshot took it
// since the last replacement, so appends nobody waits for allocate no
// channel, and a waiting reader still wakes at the next append and at
// the terminal state.
func TestRunNotifyWakesOnlyWatchers(t *testing.T) {
	r := &run{notify: make(chan struct{})}
	r.begin(1, 4)
	unwatched := r.notify
	r.appendEvent(&RunEvent{Model: "m"})
	if r.notify != unwatched {
		t.Fatal("an append with no reader replaced the notify channel")
	}

	_, _, ends, _, changed := r.snapshot(0)
	if len(ends) != 1 {
		t.Fatalf("snapshot holds %d events, want 1", len(ends))
	}
	r.appendEvent(&RunEvent{Model: "m"})
	select {
	case <-changed:
	default:
		t.Fatal("an append did not wake the reader that took notify")
	}
	replaced := r.notify
	r.appendEvent(&RunEvent{Model: "m"})
	if r.notify != replaced {
		t.Fatal("a second append replaced the notify channel no reader took")
	}

	lines, start, ends, state, changed := r.snapshot(1)
	if state != runRunning || len(ends) != 2 {
		t.Fatalf("snapshot(1) = %s with %d events, want running with 2", state, len(ends))
	}
	if got := string(lines[start:ends[1]]); !strings.HasPrefix(got, `{"seq":1,`) || strings.Count(got, "\n") != 2 {
		t.Fatalf("snapshot(1) lines %q, want events 1 and 2", got)
	}
	r.finish(nil, nil)
	select {
	case <-changed:
	default:
		t.Fatal("finish did not wake the reader that took notify")
	}
	if len(r.lines) != cap(r.lines) || len(r.ends) != cap(r.ends) {
		t.Errorf("finished log keeps spare capacity: lines %d/%d, ends %d/%d",
			len(r.lines), cap(r.lines), len(r.ends), cap(r.ends))
	}
}

// BenchmarkServeStream streams one GPT4o run of the standard collection
// through an httptest server per iteration, reading the whole body, and
// reports the wire path's cost per streamed event.
func BenchmarkServeStream(b *testing.B) {
	for _, format := range []string{"ndjson", "sse"} {
		b.Run(format, func(b *testing.B) {
			cfg := testConfig(b)
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Drain(dctx)
			}()
			spec := `{"models":["GPT4o"],"session":"bench","stream":"` + format + `"}`
			events := len(cfg.Benchmark.Questions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("streaming POST = %d", resp.StatusCode)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
