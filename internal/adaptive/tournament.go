package adaptive

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

// BankItem pairs one question with its calibrated 2PL parameters.
type BankItem struct {
	Question *dataset.Question
	Params   ItemParams
}

// Bank builds the item bank for a benchmark from calibrated parameters,
// pairing questions and params by QuestionID; every question must have
// parameters and vice versa.
func Bank(b *dataset.Benchmark, params []ItemParams) ([]BankItem, error) {
	byID := make(map[string]ItemParams, len(params))
	for _, p := range params {
		if _, dup := byID[p.QuestionID]; dup {
			return nil, fmt.Errorf("adaptive: duplicate item params for %q", p.QuestionID)
		}
		byID[p.QuestionID] = p
	}
	if len(byID) != len(b.Questions) {
		return nil, fmt.Errorf("adaptive: %d item params for %d questions", len(byID), len(b.Questions))
	}
	out := make([]BankItem, len(b.Questions))
	for i, q := range b.Questions {
		p, ok := byID[q.ID]
		if !ok {
			return nil, fmt.Errorf("adaptive: no item params for question %q", q.ID)
		}
		out[i] = BankItem{Question: q, Params: p}
	}
	return out, nil
}

// Config tunes a Tournament. The zero value picks conservative
// defaults; Seed is the run identity every tie-break draw is keyed by
// and should be set (it defaults to "adaptive").
type Config struct {
	// Seed feeds every internal/rng tie-break stream, making distinct
	// adaptive runs over the same bank reproducibly different.
	Seed string
	// MinQuestions a model must answer before any early stop (default
	// 6, clamped to MaxQuestions).
	MinQuestions int
	// MaxQuestions caps one model's chain (default len(bank): no
	// per-model cap beyond the bank — TotalBudget is the binding
	// constraint and reallocates freely across models).
	MaxQuestions int
	// TotalBudget caps the whole tournament's issued questions (default
	// models*len(bank)/3 — a third of the full grid). Models that
	// early-stop return their unused share to the pool, so contested
	// near-ties get extra depth exactly where ranking needs it.
	TotalBudget int
	// Z is the half-width multiplier of the ability confidence
	// interval used by the separation stop (default 1.96).
	Z float64
	// SEStop freezes a model once its posterior standard error falls
	// below this (default 0.15). It is a precision backstop: separation
	// and the budget pool are the primary stops.
	SEStop float64
}

func (c Config) withDefaults(bankSize, nModels int) Config {
	if c.Seed == "" {
		c.Seed = "adaptive"
	}
	if c.MaxQuestions <= 0 || c.MaxQuestions > bankSize {
		c.MaxQuestions = bankSize
	}
	if c.TotalBudget <= 0 {
		c.TotalBudget = nModels * bankSize / 3
	}
	if c.TotalBudget < nModels {
		c.TotalBudget = nModels
	}
	if c.MinQuestions <= 0 {
		c.MinQuestions = 6
	}
	if c.MinQuestions > c.MaxQuestions {
		c.MinQuestions = c.MaxQuestions
	}
	if c.Z <= 0 {
		c.Z = 1.96
	}
	if c.SEStop <= 0 {
		c.SEStop = 0.15
	}
	return c
}

// seat is one model's tournament state.
type seat struct {
	model  eval.Model
	est    *Estimator
	asked  []bool // by bank index
	nAsked int
	frozen bool
	reason string
}

// Tournament runs an adaptive evaluation over a calibrated item bank:
// it implements eval.ItemScheduler, so eval.Runner's
// EvaluateAdaptiveContext plugs it straight into the staged pipeline.
// Each model's question chain is sequential (the next item depends on
// the model's own judged history), and distinct models' chains
// interleave freely — the pipeline parallelises across models while
// the reorder buffer keeps the global event order canonical.
//
// Determinism: Seq numbers are assigned when an item is issued, items
// are issued either at construction (item 0 of every model, in model
// order) or inside Record (which the pipeline calls strictly in Seq
// order), and selection depends only on recorded outcomes and
// rng-keyed item identities. The whole schedule is therefore a pure
// function of (models, bank, Config) — workers 1 and workers 8 produce
// the same transcript byte for byte.
type Tournament struct {
	mu          sync.Mutex
	bank        []BankItem
	itemIndex   map[string]int // QuestionID -> bank index
	seatIndex   map[string]int // model name -> seat index
	seats       []*seat
	cfg         Config
	ready       []eval.Event // issued, not yet claimed by a worker
	nextSeq     int
	outstanding int // claimed, not yet recorded
	issuedTotal int
}

// NewTournament validates the bank and models and seeds item 0 for
// every model.
func NewTournament(models []eval.Model, bank []BankItem, cfg Config) (*Tournament, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("adaptive: no models")
	}
	if len(bank) == 0 {
		return nil, fmt.Errorf("adaptive: empty item bank")
	}
	t := &Tournament{
		bank:      bank,
		itemIndex: make(map[string]int, len(bank)),
		seatIndex: make(map[string]int, len(models)),
		cfg:       cfg.withDefaults(len(bank), len(models)),
	}
	for i, it := range bank {
		if it.Question == nil {
			return nil, fmt.Errorf("adaptive: bank item %d has no question", i)
		}
		if it.Question.ID != it.Params.QuestionID {
			return nil, fmt.Errorf("adaptive: bank item %d pairs question %q with params for %q",
				i, it.Question.ID, it.Params.QuestionID)
		}
		if _, dup := t.itemIndex[it.Question.ID]; dup {
			return nil, fmt.Errorf("adaptive: duplicate bank question %q", it.Question.ID)
		}
		t.itemIndex[it.Question.ID] = i
	}
	for _, m := range models {
		name := m.Name()
		if _, dup := t.seatIndex[name]; dup {
			return nil, fmt.Errorf("adaptive: duplicate model %q", name)
		}
		t.seatIndex[name] = len(t.seats)
		t.seats = append(t.seats, &seat{
			model: m,
			est:   NewEstimator(),
			asked: make([]bool, len(bank)),
		})
	}
	for si := range t.seats {
		t.issue(si)
	}
	return t, nil
}

// SizeHint bounds useful pipeline parallelism: each model advances one
// question at a time, so at most one in-flight item per seat.
func (t *Tournament) SizeHint() int { return len(t.seats) }

// Next implements eval.ItemScheduler.
func (t *Tournament) Next() (eval.Event, eval.ScheduleState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ready) > 0 {
		ev := t.ready[0]
		t.ready = t.ready[1:]
		t.outstanding++
		return ev, eval.ScheduleReady
	}
	if t.outstanding == 0 {
		return eval.Event{}, eval.ScheduleDone
	}
	return eval.Event{}, eval.ScheduleWait
}

// Record implements eval.ItemScheduler: fold the judged outcome into
// the model's posterior, annotate the event with the updated ability,
// apply the stopping rules, and issue the model's next item when it
// stays live. The pipeline calls this strictly in Seq order, so every
// piece of tournament state evolves along the canonical event order.
func (t *Tournament) Record(ev *eval.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outstanding--
	si, ok := t.seatIndex[ev.Model.Name()]
	if !ok {
		return
	}
	s := t.seats[si]
	bi, ok := t.itemIndex[ev.Question.ID]
	if !ok {
		return
	}
	s.est.Observe(t.bank[bi].Params, ev.Correct)
	ability, se := s.est.Estimate()
	ev.Adaptive = true
	ev.Ability = ability
	ev.AbilitySE = se
	switch {
	case s.nAsked >= len(t.bank):
		t.freeze(s, "exhausted")
	case s.nAsked >= t.cfg.MaxQuestions || t.issuedTotal >= t.cfg.TotalBudget:
		t.freeze(s, "budget")
	case s.nAsked < t.cfg.MinQuestions:
	case se <= t.cfg.SEStop:
		t.freeze(s, "precise")
	case t.separated(si):
		t.freeze(s, "separated")
	}
	if s.frozen {
		ev.StopReason = s.reason
		return
	}
	t.issue(si)
}

// freeze marks a seat terminal with its stop reason.
func (t *Tournament) freeze(s *seat, reason string) {
	s.frozen = true
	s.reason = reason
}

// separated reports whether the seat's Z-interval around its ability
// is disjoint from every other seat's — its rank can no longer cross
// any competitor's at the configured confidence, so asking it more
// questions cannot change the tournament ordering.
func (t *Tournament) separated(si int) bool {
	lo, hi := t.interval(si)
	for sj := range t.seats {
		if sj == si {
			continue
		}
		lo2, hi2 := t.interval(sj)
		if hi >= lo2 && hi2 >= lo {
			return false
		}
	}
	return true
}

func (t *Tournament) interval(si int) (lo, hi float64) {
	ability, se := t.seats[si].est.Estimate()
	return ability - t.cfg.Z*se, ability + t.cfg.Z*se
}

// issue selects the seat's next item — the unasked bank item with
// maximum Fisher information at the current ability estimate — and
// appends it to the ready queue with the next Seq. Information ties
// break on an rng stream keyed by (seed, question identity) — never by
// bank position, and deliberately not by model, so models with equal
// ability estimates walk identical item chains and near-tied models are
// compared on (mostly) common items rather than independent subsets.
// Hash collisions fall back to QuestionID order, so the choice is
// total, deterministic, and stable under any reordering of the bank
// slice... the §6 invariant for dynamic sources.
func (t *Tournament) issue(si int) {
	s := t.seats[si]
	ability, _ := s.est.Estimate()
	best := -1
	var bestInfo float64
	var bestKey uint64
	for bi := range t.bank {
		if s.asked[bi] {
			continue
		}
		info := t.bank[bi].Params.Information(ability)
		if best >= 0 && info < bestInfo {
			continue
		}
		// NewHasher is bit-compatible with rng.Seed but stays off the
		// hash.Hash interface, so selection cannot block under t.mu.
		key := uint64(rng.NewHasher("adaptive-select", t.cfg.Seed, t.bank[bi].Params.QuestionID))
		switch {
		case best < 0 || info > bestInfo:
		case key < bestKey:
		case key == bestKey && t.bank[bi].Params.QuestionID < t.bank[best].Params.QuestionID:
		default:
			continue
		}
		best, bestInfo, bestKey = bi, info, key
	}
	if best < 0 {
		t.freeze(s, "exhausted")
		return
	}
	s.asked[best] = true
	s.nAsked++
	t.issuedTotal++
	t.ready = append(t.ready, eval.Event{
		Seq:      t.nextSeq,
		Model:    s.model,
		Question: t.bank[best].Question,
	})
	t.nextSeq++
}

// Standing is one model's final (or current) tournament state.
type Standing struct {
	Model      string
	Ability    float64
	SE         float64
	Asked      int
	StopReason string
}

// Standings returns per-model state in construction (model) order.
// After the pipeline drains, StopReason is non-empty for every model;
// on a cancelled run it reflects the recorded prefix.
func (t *Tournament) Standings() []Standing {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Standing, len(t.seats))
	for i, s := range t.seats {
		ability, se := s.est.Estimate()
		out[i] = Standing{
			Model:      s.model.Name(),
			Ability:    ability,
			SE:         se,
			Asked:      s.nAsked,
			StopReason: s.reason,
		}
	}
	return out
}

// QuestionsAsked is the total number of items issued across all models.
func (t *Tournament) QuestionsAsked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.issuedTotal
}

// Abilities returns the ability estimates in model order — the score
// vector RankAgreement compares against a full-grid reference.
func (t *Tournament) Abilities() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.seats))
	for i, s := range t.seats {
		out[i], _ = s.est.Estimate()
	}
	return out
}
