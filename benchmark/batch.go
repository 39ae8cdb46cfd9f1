package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	chipvqa "repro"
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
)

// The three batch workloads are closed loops with one caller: each
// iteration starts when the previous one returns. Each runs whole
// iterations until the phase has lasted its seconds and done at least
// minOps of them, so p90 always has ten samples beyond it.

// measure runs a phase body between allocation snapshots and fills in
// its wall time, allocation deltas and live heap.
func measure(p *phase, body func() error) error {
	runtime.GC()
	m0 := memStats()
	t0 := now()
	err := body()
	p.wall = since(t0)
	p.mem = memSince(m0)
	p.heapMiB = heapLiveMiB()
	return err
}

// phases runs the untraced phase, beside the calibration process
// (calib.go) when the sizes ask for it, and with -trace 1 the traced
// phase after it, filling the report.
func phases(ctx context.Context, cfg config, rep *report, run func(p *phase, st *layerStats, tr *tracer) error) error {
	var cal *calibrator
	if cfg.size.calibrate {
		var err error
		if cal, err = startCalibrator(ctx); err != nil {
			return err
		}
	}
	rep.plain = &phase{cal: cal}
	err := run(rep.plain, nil, nil)
	if serr := cal.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	st, tr := &layerStats{}, newTracer()
	rep.traced = &phase{}
	rep.tr = tr
	if err := run(rep.traced, st, tr); err != nil {
		return err
	}
	for k, v := range st.values(rep.traced.wall) {
		rep.traced.layer[k] = v
	}
	return nil
}

// --- table2 -------------------------------------------------------------

// runTable2 repeats the paper's headline experiment: every model over
// the 142 questions with choices and over the challenge set, 3,408
// judged pairs per sweep, on a runtime.NumCPU() worker pool.
func runTable2(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	rep := &report{}
	s, err := timeSetup(ctx, cfg.size, rep, chipvqa.NewSuite)
	if err != nil {
		return nil, err
	}
	models, err := zooOf(s)
	if err != nil {
		return nil, err
	}
	sweep := func(ctx context.Context, r eval.Runner, models []eval.Model) ([]*eval.Report, []*eval.Report, error) {
		wc, err := r.EvaluateAllContext(ctx, models, s.Benchmark)
		if err != nil {
			return nil, nil, err
		}
		nc, err := r.EvaluateAllContext(ctx, models, s.ChallengeSet)
		return wc, nc, err
	}
	wc, nc, err := sweep(ctx, eval.Runner{Workers: 1}, models)
	if err != nil {
		return nil, err
	}
	ref := digest(wc, nc)
	if g := goldens.Table2; ref != g {
		rep.fail("table2 serial digest %s, golden %s", ref, g)
	}
	// The paper's GPT-4o Pass@1, within the 0.02 the repository's own
	// tests allow; the digest pins the exact values.
	for i, r := range wc {
		if r.ModelName == "GPT4o" && (math.Abs(r.Pass1()-0.44) > 0.02 || math.Abs(nc[i].Pass1()-0.20) > 0.02) {
			rep.fail("GPT4o Pass@1 %.3f/%.3f, paper 0.44/0.20", r.Pass1(), nc[i].Pass1())
		}
	}
	runner := eval.Runner{Workers: runtime.NumCPU()}
	if cfg.check {
		wc, nc, err := sweep(ctx, runner, models)
		if err != nil {
			return nil, err
		}
		if got := digest(wc, nc); got != ref {
			rep.fail("parallel digest %s, serial %s", got, ref)
		}
		fmt.Fprintf(log, "table2: digest %s\n", ref)
		return rep, nil
	}
	for i := 0; i < cfg.size.table2Warmup; i++ {
		if _, _, err := sweep(ctx, runner, models); err != nil {
			return nil, err
		}
	}
	models = withFault(cfg, models, s.Benchmark.Questions[0].ID)
	pairs := float64(len(models) * (s.Benchmark.Len() + s.ChallengeSet.Len()))
	err = phases(ctx, cfg, rep, func(p *phase, st *layerStats, tr *tracer) error {
		p.layer = map[string]float64{}
		var first, last [2][]*eval.Report
		err := measure(p, func() error {
			t0 := now()
			for n := 0; !done(cfg, t0, n); n++ {
				start := now()
				var wc, nc []*eval.Report
				var err error
				if st == nil {
					wc, nc, err = sweep(ctx, runner, models)
				} else {
					wc, nc, err = tracedSweep(ctx, st, tr, int64(n+1), runner.Workers, models, s)
				}
				if err != nil {
					return err
				}
				d := since(start)
				p.opsMs = append(p.opsMs, ms(d))
				p.work += pairs
				p.cal.after(d)
				if n == 0 {
					first = [2][]*eval.Report{wc, nc}
				}
				last = [2][]*eval.Report{wc, nc}
			}
			return nil
		})
		p.attempted = len(p.opsMs)
		p.digest = digest(first[0], first[1])
		for i, got := range []string{p.digest, digest(last[0], last[1])} {
			if got != ref {
				p.failed++
				rep.fail("sweep %d digest %s, serial reference %s", i*(len(p.opsMs)-1), got, ref)
			}
		}
		return err
	})
	return rep, err
}

// tracedSweep is one Table II sweep through probed pipelines.
func tracedSweep(ctx context.Context, st *layerStats, tr *tracer, req int64, workers int,
	models []eval.Model, s *chipvqa.Suite) ([]*eval.Report, []*eval.Report, error) {
	root, t0 := tr.id(), now()
	var sets [2][]*eval.Report
	for i, b := range []*dataset.Benchmark{s.Benchmark, s.ChallengeSet} {
		sets[i] = newReports(models)
		if err := runGrid(ctx, st, tr, root, req, eval.InferenceOptions{}, workers, grid{models, b.Questions}, sets[i]); err != nil {
			return nil, nil, err
		}
	}
	tr.add(root, 0, req, "table2.sweep", t0, now())
	return sets[0], sets[1], nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// --- stream_16x ---------------------------------------------------------

// Stream workload constants: the §IV-B 16× resolution with the scene
// cache budgeted well below the working set of one shard.
const (
	streamFactor = 16
	streamBudget = 1 << 20
)

// shardClock times a shard stream: one iteration runs from one shard's
// arrival to the next, and the gap between a shard's evaluation ending
// and the next shard arriving is generation time.
type shardClock struct {
	p        *phase
	st       *layerStats
	tr       *tracer
	last     time.Time // previous shard's arrival
	end      time.Time // previous shard's evaluation end
	arrivals int
}

// arrive records a shard's arrival and returns its request id.
func (c *shardClock) arrive(sh dataset.Shard, models int) int64 {
	at := now()
	if c.arrivals > 0 {
		c.p.opsMs = append(c.p.opsMs, ms(at.Sub(c.last)))
	}
	c.arrivals++
	c.last = at
	c.p.work += float64(models * len(sh.Questions))
	req := int64(c.arrivals)
	if c.st != nil {
		cat, gen := sh.Questions[0].Category, at.Sub(c.end)
		c.st.shardGen.add(gen)
		c.st.genNs[cat].Add(int64(gen))
		c.st.genQ[cat].Add(int64(len(sh.Questions)))
		c.tr.add(c.tr.id(), 0, req, "core.shard_gen", c.end, at)
	}
	return req
}

// runStream evaluates freshly generated extended folds shard by shard
// at 16× downsampling, one fold after another, each fold a new seed, so
// no question repeats. A fold holds two shards per discipline, so every
// fold, and so every run, has the same mix of disciplines.
func runStream(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	rep := &report{}
	s, err := timeSetup(ctx, cfg.size, rep, chipvqa.NewSuite)
	if err != nil {
		return nil, err
	}
	models, err := zooOf(s)
	if err != nil {
		return nil, err
	}
	opts := eval.InferenceOptions{DownsampleFactor: streamFactor}
	per, size := cfg.size.foldPerCat, cfg.size.shardSize
	foldSeed := func(i int) string { return fmt.Sprintf("%s-%d", cfg.seed, i) }
	// fold evaluates one fold through Runner.EvaluateShardsContext;
	// arrive, when set, sees each shard first.
	fold := func(r eval.Runner, models []eval.Model, seed string, arrive func(dataset.Shard), end func()) ([]*eval.Report, error) {
		reports := newReports(models)
		err := r.EvaluateShardsContext(ctx, models, func(next func(dataset.Shard) error) error {
			return core.StreamExtended(seed, per, size, func(sh dataset.Shard) error {
				if arrive != nil {
					arrive(sh)
					defer end()
				}
				return next(sh)
			})
		}, reports)
		return reports, err
	}
	resetCache := func() {
		visual.Default.Reset()
		visual.Default.SetBudget(streamBudget)
	}
	checkCache := func() {
		if st := visual.Default.Stats(); st.PeakBytes > st.Budget {
			rep.fail("scene cache peak %d bytes over its %d budget", st.PeakBytes, st.Budget)
		}
	}
	resetCache()
	refReports, err := fold(eval.Runner{Workers: 1, Opts: opts}, models, foldSeed(0), nil, nil)
	if err != nil {
		return nil, err
	}
	ref := digest(refReports)
	firstQ := refReports[0].Results[0].QuestionID
	refReports = nil
	if cfg.seed == goldens.Seed && cfg.size == full && ref != goldens.Stream16x {
		rep.fail("fold 0 serial digest %s, golden %s", ref, goldens.Stream16x)
	}
	runner := eval.Runner{Workers: runtime.NumCPU(), Opts: opts}
	if cfg.check {
		resetCache()
		got, err := fold(runner, models, foldSeed(0), nil, nil)
		if err != nil {
			return nil, err
		}
		if d := digest(got); d != ref {
			rep.fail("parallel fold 0 digest %s, serial %s", d, ref)
		}
		checkCache()
		fmt.Fprintf(log, "stream_16x: fold 0 digest %s\n", ref)
		return rep, nil
	}
	models = withFault(cfg, models, firstQ)
	err = phases(ctx, cfg, rep, func(p *phase, st *layerStats, tr *tracer) error {
		p.layer = map[string]float64{}
		resetCache()
		err := measure(p, func() error {
			t0 := now()
			c := &shardClock{p: p, st: st, tr: tr, last: t0, end: t0}
			end := func() { c.end = now() }
			for f := 0; !done(cfg, t0, len(p.opsMs)); f++ {
				foldStart := now()
				var reports []*eval.Report
				var err error
				if st == nil {
					reports, err = fold(runner, models, foldSeed(f), func(sh dataset.Shard) { c.arrive(sh, len(models)) }, end)
				} else {
					reports = newReports(models)
					err = core.StreamExtended(foldSeed(f), per, size, func(sh dataset.Shard) error {
						req := c.arrive(sh, len(models))
						defer end()
						return runGrid(ctx, st, tr, 0, req, opts, runner.Workers, grid{models, sh.Questions}, reports)
					})
				}
				if err != nil {
					return err
				}
				if f == 0 {
					p.digest = digest(reports)
				}
				// Calibration runs between folds; shifting the shard
				// clock keeps it out of the iteration times.
				k0 := now()
				p.cal.after(k0.Sub(foldStart))
				k := since(k0)
				c.last, c.end = c.last.Add(k), c.end.Add(k)
			}
			p.opsMs = append(p.opsMs, ms(since(c.last)))
			return nil
		})
		p.attempted = len(p.opsMs)
		if p.digest != ref {
			p.failed++
			rep.fail("fold 0 digest %s, serial reference %s", p.digest, ref)
		}
		checkCache()
		if st != nil {
			c := visual.Default.Stats()
			p.layer["visual.lookups"] = float64(c.Hits + c.Misses)
			p.layer["visual.hit_ratio"] = c.HitRate()
			p.layer["visual.evictions"] = float64(c.Evictions)
			p.layer["visual.peak_bytes"] = float64(c.PeakBytes)
		}
		return err
	})
	return rep, err
}

// --- adaptive_bank ------------------------------------------------------

// bankSeed is the seed of adaptive_bank's calibration fold. The bank is
// fixed, as table2's questions are, because it sets how long every
// tournament of a run goes on: some seeds' banks stop tournaments after
// two thirds of the questions others ask, which would move the
// iteration times by a third from one seed to the next. The run's seed
// picks the tournaments' tie-break seeds.
const bankSeed = "bench"

// runAdaptive runs IRT tournaments over one calibrated bank, each with
// its own tie-break seed: the pipeline's feedback path (judge, Record,
// Next) and the ability update dominate instead of per-event work.
func runAdaptive(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	rep := &report{}
	type setup struct {
		s   *chipvqa.Suite
		cal *chipvqa.AdaptiveCalibration
	}
	su, err := timeSetup(ctx, cfg.size, rep, func() (setup, error) {
		s, err := chipvqa.NewSuite()
		if err != nil {
			return setup{}, err
		}
		cal, err := s.AdaptiveCalibrate(ctx, bankSeed, cfg.size.bankPerCat)
		return setup{s, cal}, err
	})
	if err != nil {
		return nil, err
	}
	models, err := zooOf(su.s)
	if err != nil {
		return nil, err
	}
	cal := su.cal
	tcfg := func(i int) adaptive.Config { return adaptive.Config{Seed: fmt.Sprintf("%s-%d", cfg.seed, i)} }
	ref, err := cal.Run(ctx, eval.Runner{Workers: 1}, models, tcfg(0))
	if err != nil {
		return nil, err
	}
	refDigest := digest(ref.Reports)
	if g := goldens.Adaptive; cfg.seed == goldens.Seed && cfg.size == full &&
		(refDigest != g.Digest || ref.QuestionsAsked != g.QuestionsAsked || ref.RankAgreement != g.RankAgreement) {
		rep.fail("tournament 0 serial digest %s asked %d agreement %v, golden %s %d %v",
			refDigest, ref.QuestionsAsked, ref.RankAgreement, g.Digest, g.QuestionsAsked, g.RankAgreement)
	}
	runner := eval.Runner{Workers: runtime.NumCPU()}
	same := func(what string, res *adaptive.Result, d string) bool {
		if d == refDigest && res.QuestionsAsked == ref.QuestionsAsked && res.RankAgreement == ref.RankAgreement {
			return true
		}
		rep.fail("%s tournament 0 digest %s asked %d agreement %v, serial %s %d %v",
			what, d, res.QuestionsAsked, res.RankAgreement, refDigest, ref.QuestionsAsked, ref.RankAgreement)
		return false
	}
	if cfg.check {
		res, err := cal.Run(ctx, runner, models, tcfg(0))
		if err != nil {
			return nil, err
		}
		same("parallel", res, digest(res.Reports))
		fmt.Fprintf(log, "adaptive_bank: tournament 0 digest %s asked %d agreement %v\n",
			refDigest, ref.QuestionsAsked, ref.RankAgreement)
		return rep, nil
	}
	for i := 0; i < cfg.size.adaptiveWarmup; i++ {
		if _, err := cal.Run(ctx, runner, models, adaptive.Config{Seed: fmt.Sprintf("%s-warm-%d", cfg.seed, i)}); err != nil {
			return nil, err
		}
	}
	models = withFault(cfg, models, ref.Reports[0].Results[0].QuestionID)
	err = phases(ctx, cfg, rep, func(p *phase, st *layerStats, tr *tracer) error {
		p.layer = map[string]float64{}
		err := measure(p, func() error {
			t0 := now()
			for i := 0; !done(cfg, t0, i); i++ {
				start := now()
				var res *adaptive.Result
				var err error
				if st == nil {
					res, err = cal.Run(ctx, runner, models, tcfg(i))
				} else {
					res, err = tracedTournament(ctx, st, tr, int64(i+1), runner.Workers, cal, models, tcfg(i))
				}
				if err != nil {
					return err
				}
				d := since(start)
				p.opsMs = append(p.opsMs, ms(d))
				p.work += float64(res.QuestionsAsked)
				p.cal.after(d)
				if i == 0 {
					p.digest = digest(res.Reports)
					if !same("timed", res, p.digest) {
						p.failed++
					}
					p.layer["adaptive.questions_asked"] = float64(res.QuestionsAsked)
					p.layer["adaptive.rank_agreement"] = res.RankAgreement
				}
			}
			return nil
		})
		p.attempted = len(p.opsMs)
		return err
	})
	return rep, err
}

// tracedTournament is Calibration.Run through a probed pipeline whose
// scheduler is the tournament behind a timing wrapper.
func tracedTournament(ctx context.Context, st *layerStats, tr *tracer, req int64, workers int,
	cal *chipvqa.AdaptiveCalibration, models []eval.Model, cfg adaptive.Config) (*adaptive.Result, error) {
	t0 := now()
	root := tr.id()
	trn, err := adaptive.NewTournament(models, cal.Bank, cfg)
	if err != nil {
		return nil, err
	}
	reports := newReports(models)
	index := make(map[string]int, len(models))
	for i, m := range models {
		index[m.Name()] = i
	}
	err = runProbed(ctx, st, tr, root, req, "eval.pipeline", eval.InferenceOptions{}, workers,
		&timedScheduler{t: trn, st: st}, nil, func(ev eval.Event) {
			appendResult(reports[index[ev.Model.Name()]], ev)
		})
	if err != nil {
		return nil, err
	}
	ref := make([]float64, len(models))
	for i, m := range models {
		ref[i], _ = cal.ReferenceScore(m.Name())
	}
	tr.add(root, 0, req, "adaptive.tournament", t0, now())
	return &adaptive.Result{
		Reports:        reports,
		Standings:      trn.Standings(),
		QuestionsAsked: trn.QuestionsAsked(),
		GridQuestions:  len(models) * len(cal.Fold.Questions),
		RankAgreement:  adaptive.RankAgreement(ref, trn.Abilities()),
	}, nil
}
