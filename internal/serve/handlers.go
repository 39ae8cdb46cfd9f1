package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// httpError writes the uniform JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// writeJSON marshals v with a status code (single Write, newline-
// terminated).
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.reg.isDraining() {
		status = "draining"
	}
	runs, inflight := s.reg.counts()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
		Runs     int    `json:"runs"`
		Active   int    `json:"active"`
		PoolCap  int    `json:"pool_cap"`
		PoolFree int    `json:"pool_free"`
		Queued   int    `json:"queued"`
	}{
		Status:   status,
		Sessions: s.sched.sessions(),
		Runs:     runs,
		Active:   inflight,
		PoolCap:  s.sched.pool.Cap(),
		PoolFree: s.sched.pool.Free(),
		Queued:   s.sched.pool.Queued(),
	})
}

// handleCollections is GET /v1/collections.
func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	type collectionDoc struct {
		Name      string `json:"name"`
		Questions int    `json:"questions"`
	}
	out := struct {
		Collections []collectionDoc `json:"collections"`
	}{}
	for _, c := range s.collections {
		out.Collections = append(out.Collections, collectionDoc{Name: c.Name, Questions: c.Benchmark.Len()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleModels is GET /v1/models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Models []string `json:"models"`
	}{Models: s.modelNames})
}

// parseCategory resolves a ?category= value against the five
// disciplines (short or full Table I name, case-insensitive).
func parseCategory(v string) (dataset.Category, bool) {
	for _, c := range dataset.Categories() {
		if strings.EqualFold(v, c.Short()) || strings.EqualFold(v, c.String()) {
			return c, true
		}
	}
	return 0, false
}

// questionSummary is one row of the question listing.
type questionSummary struct {
	ID         string  `json:"id"`
	Category   string  `json:"category"`
	Type       string  `json:"type"`
	Topic      string  `json:"topic,omitempty"`
	Difficulty float64 `json:"difficulty"`
}

// handleQuestions is GET /v1/questions with collection / category /
// type / topic filters plus limit/offset paging.
func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("collection")
	bench, ok := s.collection(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return
	}
	keep := func(*dataset.Question) bool { return true }
	if v := q.Get("category"); v != "" {
		cat, ok := parseCategory(v)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown category %q", v)
			return
		}
		prev := keep
		keep = func(qu *dataset.Question) bool { return prev(qu) && qu.Category == cat }
	}
	if v := q.Get("type"); v != "" {
		var t dataset.QType
		switch {
		case strings.EqualFold(v, "MC"):
			t = dataset.MultipleChoice
		case strings.EqualFold(v, "SA"):
			t = dataset.ShortAnswer
		default:
			httpError(w, http.StatusBadRequest, "type must be MC or SA, got %q", v)
			return
		}
		prev := keep
		keep = func(qu *dataset.Question) bool { return prev(qu) && qu.Type == t }
	}
	if v := q.Get("topic"); v != "" {
		prev := keep
		keep = func(qu *dataset.Question) bool { return prev(qu) && qu.Topic == v }
	}
	limit, offset := 0, 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
		offset = n
	}
	matched := bench.Filter(keep)
	total := len(matched)
	if offset > len(matched) {
		offset = len(matched)
	}
	matched = matched[offset:]
	if limit > 0 && limit < len(matched) {
		matched = matched[:limit]
	}
	out := struct {
		Collection string            `json:"collection"`
		Total      int               `json:"total"`
		Count      int               `json:"count"`
		Questions  []questionSummary `json:"questions"`
	}{
		Collection: collectionName(name),
		Total:      total,
		Count:      len(matched),
		Questions:  make([]questionSummary, len(matched)),
	}
	for i, qu := range matched {
		out.Questions[i] = questionSummary{
			ID:         qu.ID,
			Category:   qu.Category.Short(),
			Type:       qu.Type.String(),
			Topic:      qu.Topic,
			Difficulty: qu.Difficulty,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// collectionName normalizes "" to the default collection name.
func collectionName(name string) string {
	if name == "" {
		return "standard"
	}
	return name
}

// lookupQuestion resolves {id} within ?collection=.
func (s *Server) lookupQuestion(w http.ResponseWriter, r *http.Request) (*dataset.Question, bool) {
	name := r.URL.Query().Get("collection")
	if _, ok := s.collection(name); !ok {
		httpError(w, http.StatusNotFound, "unknown collection %q", name)
		return nil, false
	}
	id := r.PathValue("id")
	q, ok := s.qIndex[collectionName(name)][id]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown question %q in collection %q", id, collectionName(name))
		return nil, false
	}
	return q, true
}

// handleQuestion is GET /v1/questions/{id}.
func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	q, ok := s.lookupQuestion(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID         string   `json:"id"`
		Collection string   `json:"collection"`
		Category   string   `json:"category"`
		Type       string   `json:"type"`
		Topic      string   `json:"topic,omitempty"`
		Difficulty float64  `json:"difficulty"`
		Prompt     string   `json:"prompt"`
		Choices    []string `json:"choices,omitempty"`
		Challenge  bool     `json:"challenge,omitempty"`
	}{
		ID:         q.ID,
		Collection: collectionName(r.URL.Query().Get("collection")),
		Category:   q.Category.Short(),
		Type:       q.Type.String(),
		Topic:      q.Topic,
		Difficulty: q.Difficulty,
		Prompt:     q.Prompt,
		Choices:    q.Choices,
		Challenge:  q.Challenge,
	})
}

// handleQuestionImage is GET /v1/questions/{id}/image.png: the rendered
// visual, optionally degraded by ?factor=. The scene cache holds only
// the encoded bytes, charged to its budget, so the LRU invariant
// PeakBytes <= Budget holds under concurrent image traffic; the pixels
// of a miss go back to the pool once encoded.
func (s *Server) handleQuestionImage(w http.ResponseWriter, r *http.Request) {
	q, ok := s.lookupQuestion(w, r)
	if !ok {
		return
	}
	factor := 1
	if v := r.URL.Query().Get("factor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || !validDownsample(n) {
			httpError(w, http.StatusBadRequest, "factor must be one of 1,2,4,8,16,32, got %q", v)
			return
		}
		factor = n
	}
	data, err := s.cache.EncodedPNG(q.Visual, factor)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode %s: %v", q.ID, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "image/png")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
