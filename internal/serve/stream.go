package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// streamFormat selects the live event encoding.
type streamFormat int

const (
	formatNDJSON streamFormat = iota // one JSON object per line
	formatSSE                        // text/event-stream frames
)

// RunSummary is the terminal record closing every event stream: the
// NDJSON line with "done":true, or the SSE "done" event.
type RunSummary struct {
	Done    bool            `json:"done"`
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Events  int             `json:"events"`
	Reports []ReportSummary `json:"reports,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ReportSummary is one model's aggregate in a RunSummary.
type ReportSummary struct {
	Model   string  `json:"model"`
	Pass1   float64 `json:"pass1"`
	Results int     `json:"results"`
}

// summary snapshots the terminal record for a run.
func (r *run) summary() RunSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RunSummary{
		Done:   true,
		ID:     r.id,
		State:  r.state.String(),
		Events: len(r.ends),
		Error:  r.failure,
	}
	for _, rep := range r.reports {
		out.Reports = append(out.Reports, ReportSummary{
			Model:   rep.ModelName,
			Pass1:   rep.Pass1(),
			Results: len(rep.Results),
		})
	}
	return out
}

// acceptsSSE reports whether the request prefers text/event-stream.
func acceptsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamRun replays a run's event log from index `from` and follows it
// live, flushing after every batch, until the run reaches a terminal
// state (then a summary record closes the stream) or ctx is done
// (client disconnect — for request-scoped runs the registry keeps the
// deterministic prefix). Events are byte-identical across subscribers
// because every subscriber copies the same append-only log bytes, each
// event encoded once, as positional-free canonical JSON, when appended.
func streamRun(ctx context.Context, w http.ResponseWriter, rn *run, f streamFormat, from int) {
	h := w.Header()
	if f == formatSSE {
		h.Set("Content-Type", "text/event-stream")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit headers so the client sees the stream open
	idx := from
	for {
		lines, start, ends, state, changed := rn.snapshot(idx)
		if len(ends) > 0 {
			if err := writeStreamEvents(w, f, lines, start, ends); err != nil {
				return
			}
			idx += len(ends)
			flush()
		}
		if state.terminal() {
			if err := writeStreamSummary(w, f, rn.summary()); err != nil {
				return
			}
			flush()
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// sseResultPrefix opens the SSE frame of one logged event.
const sseResultPrefix = "event: result\ndata: "

// writeStreamEvents writes a batch of logged events (the lines, start
// and ends of a snapshot) in the chosen format: NDJSON as one Write of
// their log bytes, SSE as one frame per event around its log line.
func writeStreamEvents(w http.ResponseWriter, f streamFormat, lines []byte, start int, ends []int) error {
	if f == formatNDJSON {
		_, err := w.Write(lines[start:ends[len(ends)-1]])
		return err
	}
	for _, end := range ends {
		if _, err := io.WriteString(w, sseResultPrefix); err != nil {
			return err
		}
		// The line carries its own '\n'; one more ends the frame.
		if _, err := w.Write(lines[start:end]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// writeStreamSummary encodes the terminal record: one NDJSON line, or
// the SSE "done" frame.
func writeStreamSummary(w http.ResponseWriter, f streamFormat, sum RunSummary) error {
	body, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	if f == formatSSE {
		body = append(append([]byte("event: done\ndata: "), body...), '\n')
	}
	_, err = w.Write(append(body, '\n'))
	return err
}
