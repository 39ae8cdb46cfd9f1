package adaptive

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
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

// seat is one model's tournament state. pending is the bank index of
// the seat's issued, unrecorded item: a seat has at most one.
type seat struct {
	model   eval.Model
	est     Estimator
	nAsked  int
	pending int
	frozen  bool
	reason  string
}

// slot is one bank item in selection order: its precomputed
// information tie-break key and its bank index.
type slot struct {
	key  uint64
	bank int
}

// itemClass is one distinct (Disc, Diff) pair of the bank. Its items
// hold slots[start:end], ordered by (key, QuestionID), so within a
// class — where every item carries the same information at any
// ability — the first unasked slot is the class's selection winner.
// bound is at least every value Information returns for the class at
// any ability (see infoBound); a1 and a2 bound it at one ability from
// the class's distance to Diff as well (see diffBound and below). rows
// caches the class's log-likelihood rows for a wrong (0) and a right
// (1) answer, both filled on the class's first recorded outcome.
type itemClass struct {
	disc, diff float64
	bound      float64
	a1, a2     float64
	start, end int
	filled     bool
	rows       [2][gridN]float64
}

// cursor is one seat's state in one class: at is the seat's first
// unasked slot of the class, and next and prev link the seat's live
// classes, those with an unasked slot, in class order.
type cursor struct {
	at, next, prev int32
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
	mu        sync.Mutex
	bank      []BankItem
	seatIndex map[string]int // model name -> seat index
	seats     []seat
	cfg       Config

	slots   []slot      // bank items grouped by class
	classes []itemClass // distinct item parameters, Disc descending
	classOf []int       // bank index -> class
	// cursors[si*(len(classes)+1)+c] is seat si's cursor in class c:
	// selection always takes a class's first unasked slot, so a seat's
	// asked items form a prefix of every class. Entry len(classes) of
	// each seat's block heads its circular list of live classes.
	cursors []cursor

	// ready is a ring of issued events not yet claimed by a worker. A
	// seat has at most one issued, unrecorded item, so one slot per
	// seat never overflows.
	ready       []eval.Event
	head        int // ring index of the oldest ready event
	queued      int // ready events
	nextSeq     int
	outstanding int // claimed, not yet recorded
	issuedTotal int
	infoEvals   int // Information calls in selectClass, for the work-count test
	visits      int // classes selectClass visited, for the work-count test
	expSkips    int // grid points the summary skipped exp for, for the skip-share test
}

// NewTournament validates the bank and models and seeds item 0 for
// every model.
func NewTournament(models []eval.Model, bank []BankItem, cfg Config) (*Tournament, error) {
	return newTournament(models, bank, cfg, selectKey)
}

// selectKey is a question's information tie-break key, drawn from an
// rng stream keyed by (seed, question identity).
func selectKey(seed, questionID string) uint64 {
	return uint64(rng.NewHasher("adaptive-select", seed, questionID))
}

// newTournament is NewTournament with the tie-break key function as a
// parameter, so tests can force key ties.
func newTournament(models []eval.Model, bank []BankItem, cfg Config, key func(seed, questionID string) uint64) (*Tournament, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("adaptive: no models")
	}
	if len(bank) == 0 {
		return nil, fmt.Errorf("adaptive: empty item bank")
	}
	if len(bank) >= math.MaxInt32 {
		return nil, fmt.Errorf("adaptive: %d bank items, want fewer than %d", len(bank), math.MaxInt32)
	}
	seen := make(map[string]struct{}, len(bank))
	t := &Tournament{
		bank:      bank,
		seatIndex: make(map[string]int, len(models)),
		seats:     make([]seat, 0, len(models)),
		cfg:       cfg.withDefaults(len(bank), len(models)),
		ready:     make([]eval.Event, len(models)),
	}
	for i, it := range bank {
		if it.Question == nil {
			return nil, fmt.Errorf("adaptive: bank item %d has no question", i)
		}
		if it.Question.ID != it.Params.QuestionID {
			return nil, fmt.Errorf("adaptive: bank item %d pairs question %q with params for %q",
				i, it.Question.ID, it.Params.QuestionID)
		}
		if p := it.Params; !finite(p.Disc) || !finite(p.Diff) || p.Disc <= 0 {
			return nil, fmt.Errorf("adaptive: bank item %q has invalid params (disc %v, diff %v): want finite, disc > 0",
				it.Question.ID, p.Disc, p.Diff)
		}
		if _, dup := seen[it.Question.ID]; dup {
			return nil, fmt.Errorf("adaptive: duplicate bank question %q", it.Question.ID)
		}
		seen[it.Question.ID] = struct{}{}
	}
	for _, m := range models {
		name := m.Name()
		if _, dup := t.seatIndex[name]; dup {
			return nil, fmt.Errorf("adaptive: duplicate model %q", name)
		}
		t.seatIndex[name] = len(t.seats)
		t.seats = append(t.seats, seat{model: m})
		t.seats[len(t.seats)-1].est.setPrior()
	}
	t.buildClasses(key)
	for si := range t.seats {
		t.issue(si)
	}
	return t, nil
}

// buildClasses groups the bank by the exact bits of (Disc, Diff),
// orders the groups by Disc descending and each group by
// (key, QuestionID), points every seat's cursors at the start of every
// class and links every class live. Grouping sorts flat slices, so the
// tables cost a constant number of allocations per tournament.
func (t *Tournament) buildClasses(key func(seed, questionID string) uint64) {
	t.slots = make([]slot, len(t.bank))
	for i, it := range t.bank {
		t.slots[i] = slot{key: key(t.cfg.Seed, it.Params.QuestionID), bank: i}
	}
	slices.SortFunc(t.slots, func(a, b slot) int {
		pa, pb := &t.bank[a.bank].Params, &t.bank[b.bank].Params
		if c := cmp.Compare(math.Float64bits(pb.Disc), math.Float64bits(pa.Disc)); c != 0 {
			return c
		}
		if c := cmp.Compare(math.Float64bits(pa.Diff), math.Float64bits(pb.Diff)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return strings.Compare(pa.QuestionID, pb.QuestionID)
	})
	t.classOf = make([]int, len(t.bank))
	n := 0
	for i, sl := range t.slots {
		if i == 0 || !sameParams(t.bank[t.slots[i-1].bank].Params, t.bank[sl.bank].Params) {
			n++
		}
		t.classOf[sl.bank] = n - 1
	}
	t.classes = make([]itemClass, n)
	for i, sl := range t.slots {
		cl := &t.classes[t.classOf[sl.bank]]
		if cl.end == 0 {
			p := t.bank[sl.bank].Params
			cl.disc, cl.diff, cl.bound, cl.start = p.Disc, p.Diff, infoBound(p.Disc), i
			cl.a1, cl.a2 = diffBound(p.Disc)
		}
		cl.end = i + 1
	}
	t.cursors = make([]cursor, len(t.seats)*(n+1))
	for i := range t.cursors {
		c := i % (n + 1)
		t.cursors[i] = cursor{next: int32((c + 1) % (n + 1)), prev: int32((c + n) % (n + 1))}
		if c < n {
			t.cursors[i].at = int32(t.classes[c].start)
		}
	}
}

// infoBound bounds Information(θ) for an item of discrimination disc
// at every θ. Information computes fl(fl(A·P)·fl(1−P)) with
// A = fl(disc·disc) and P in [0,1]. The exact P(1−P) is at most 1/4,
// and the three roundings raise the product by less than 3 ulps (or,
// for a subnormal result, by at most half a subnormal ulp each), so
// A/4 raised by four ulps is never below it. The bound is monotone in
// disc, so over classes sorted by Disc descending no class after one
// whose bound is below the best information found can beat or tie it.
func infoBound(disc float64) float64 {
	b := disc * disc * 0.25
	for i := 0; i < 4; i++ {
		b = math.Nextafter(b, math.Inf(1))
	}
	return b
}

// diffBound returns the coefficients of a bound on Information(θ)
// that also uses the item's distance to Diff: with
// z = clampZ(disc·(θ−diff)), computed as Prob computes it,
//
//	Information(θ) ≤ a1/(4 + z² + z⁴/12 + z⁶/360) + a2.
//
// Exactly, P(1−P) = 1/(2+2cosh z), and 2cosh z ≥ 2 + z² + z⁴/12 +
// z⁶/360, the first terms of its Taylor series, which has no negative
// term. Information computes fl(fl(A·p)·fl(1−p)) with A = fl(disc·disc)
// and p = fl(1/fl(1+fl(exp(−z)))), so p = P(1+η), where η gathers
// exp's error and two roundings: a few ulps. 1−p is exact for p ≥ 1/2
// (Sterbenz) and rounded once below it, so
// fl(1−p) ≤ ((1−P) + |η|)(1+u) with u = 2⁻⁵³. The |η| term is absolute:
// near |z| = 35 the cancellation in 1−p leaves an error of about
// ulp(1) against 1−P ≈ 6e-16, which no relative factor covers. So
// Information is at most A·P(1−P)(1+|η|)(1+u)³ + 2A·|η|. For
// |η| ≤ 2⁻⁴¹ (Go's exp errs by a few ulps), a1 = A·(1+2⁻⁴⁰) covers the
// first term together with the dozen roundings of below's own test,
// and a2 = A·2⁻⁴⁰ the second. The argument needs every step normal:
// for A in [2⁻⁹⁰⁰, 2⁹⁰⁰] every intermediate is (p and 1−p are at
// least 6e-16 after clamping), and below's product can only overflow
// where the exact product exceeds a1 anyway. Outside that range a1 is
// +Inf, so the class is never skipped by this bound and Information
// decides.
func diffBound(disc float64) (a1, a2 float64) {
	a := disc * disc
	if !(a >= 0x1p-900 && a <= 0x1p900) {
		return math.Inf(1), 0
	}
	return a * (1 + 0x1p-40), a * 0x1p-40
}

// below reports whether the class's information at ability is
// strictly below best, from its diffBound and without exp: it tests
// a1 < (best−a2)·(4+z²+z⁴/12+z⁶/360), the bound rearranged so that it
// needs no division. A class whose information ties best is never
// below it, and the test is monotone in best.
func (cl *itemClass) below(ability, best float64) bool {
	z := clampZ(cl.disc * (ability - cl.diff))
	z2 := z * z
	return cl.a1 < (best-cl.a2)*(4+z2*(1+z2*(1.0/12+z2*(1.0/360))))
}

// sameParams reports whether two items have bit-identical (Disc, Diff).
func sameParams(a, b ItemParams) bool {
	return math.Float64bits(a.Disc) == math.Float64bits(b.Disc) &&
		math.Float64bits(a.Diff) == math.Float64bits(b.Diff)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// SizeHint bounds useful pipeline parallelism: each model advances one
// question at a time, so at most one in-flight item per seat.
func (t *Tournament) SizeHint() int { return len(t.seats) }

// Next implements eval.ItemScheduler.
//
//hot:adaptive scheduler claim path; steady state must not allocate
func (t *Tournament) Next() (eval.Event, eval.ScheduleState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.queued > 0 {
		ev := t.ready[t.head]
		t.head = (t.head + 1) % len(t.ready)
		t.queued--
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
//
//hot:adaptive serial feedback path; steady state must not allocate
func (t *Tournament) Record(ev *eval.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outstanding--
	si, ok := t.seatIndex[ev.Model.Name()]
	if !ok {
		return
	}
	s := &t.seats[si]
	bi := s.pending
	if t.bank[bi].Question != ev.Question {
		return
	}
	t.expSkips += s.est.observeRow(t.logLikRow(bi, ev.Correct))
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

// logLikRow returns the log-likelihood row of an outcome on bank item
// bi, shared by every item of its class. The first outcome recorded on
// the class fills both rows.
func (t *Tournament) logLikRow(bi int, correct bool) *[gridN]float64 {
	cl := &t.classes[t.classOf[bi]]
	if !cl.filled {
		fillLogLikRows(&cl.rows, t.bank[bi].Params)
		cl.filled = true
	}
	o := 0
	if correct {
		o = 1
	}
	return &cl.rows[o]
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
// appends it to the ready ring with the next Seq.
//
//hot:adaptive per-record item selection
func (t *Tournament) issue(si int) {
	s := &t.seats[si]
	ability, _ := s.est.Estimate()
	c := t.selectClass(si, ability)
	if c < 0 {
		t.freeze(s, "exhausted")
		return
	}
	bi := t.take(si, c)
	s.pending = bi
	s.nAsked++
	t.issuedTotal++
	t.ready[(t.head+t.queued)%len(t.ready)] = eval.Event{
		Seq:      t.nextSeq,
		Model:    s.model,
		Question: t.bank[bi].Question,
	}
	t.queued++
	t.nextSeq++
}

// selectClass returns the class whose first unasked item is seat si's
// most informative at ability, or -1 when the seat has asked the whole
// bank. Items rank by (information desc, key asc, QuestionID asc).
// The key comes from an rng stream keyed by (seed, question identity)
// — never by bank position, and deliberately not by model, so models
// with equal ability estimates walk identical item chains and near-
// tied models are compared on (mostly) common items rather than
// independent subsets. Hash collisions fall back to QuestionID order,
// so the ranking is total, deterministic, and stable under any
// reordering of the bank slice... the §6 invariant for dynamic
// sources. Because it is total, ranking each class by its first
// unasked item — items of one class carry bit-identical information —
// picks exactly the item a scan of the whole bank would, and the scan
// may visit the classes in any order. It walks the seat's live
// classes only, and stops at the first class whose bound is below the
// best information found, since classes run in Disc order and so every
// later bound is lower still. Before paying exp for a class, it skips
// the class when its bound at this ability (below) is strictly below
// the best. A tie with either bound is still evaluated.
//
//hot:adaptive per-record item selection
func (t *Tournament) selectClass(si int, ability float64) int {
	n := len(t.classes)
	cursors := t.cursors[si*(n+1) : (si+1)*(n+1)]
	best := -1
	var bestInfo float64
	var bestSlot slot
	for c := int(cursors[n].next); c != n; c = int(cursors[c].next) {
		t.visits++
		cl := &t.classes[c]
		if best >= 0 && cl.bound < bestInfo {
			break
		}
		if best >= 0 && cl.below(ability, bestInfo) {
			continue
		}
		t.infoEvals++
		info := ItemParams{Disc: cl.disc, Diff: cl.diff}.Information(ability)
		if best >= 0 && info < bestInfo {
			continue
		}
		sl := t.slots[cursors[c].at]
		switch {
		case best < 0 || info > bestInfo:
		case sl.key < bestSlot.key:
		case sl.key == bestSlot.key &&
			t.bank[sl.bank].Params.QuestionID < t.bank[bestSlot.bank].Params.QuestionID:
		default:
			continue
		}
		best, bestInfo, bestSlot = c, info, sl
	}
	return best
}

// take marks class c's first unasked item asked for seat si and
// returns its bank index, unlinking the class from the seat's live
// list once it has no unasked item left.
func (t *Tournament) take(si, c int) int {
	n := len(t.classes)
	cursors := t.cursors[si*(n+1) : (si+1)*(n+1)]
	cur := &cursors[c]
	bi := t.slots[cur.at].bank
	cur.at++
	if int(cur.at) == t.classes[c].end {
		cursors[cur.prev].next = cur.next
		cursors[cur.next].prev = cur.prev
	}
	return bi
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
	for i := range t.seats {
		s := &t.seats[i]
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
	for i := range t.seats {
		out[i], _ = t.seats[i].est.Estimate()
	}
	return out
}
