// Benchmark harness: one testing.B benchmark per experiment of the
// paper (see DESIGN.md §4 for the experiment index E1..E8) plus the
// ablations of DESIGN.md §5. Each benchmark prints the rows/series the
// corresponding table or figure reports, then times the regeneration.
//
// Run everything:  go test -bench=. -benchmem
package chipvqa_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	chipvqa "repro"
	"repro/internal/agent"
	"repro/internal/arch"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/manuf"
	"repro/internal/rng"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// E1 — Table I: benchmark statistics.
func BenchmarkTableI(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.Logf("\n%s", suite.FormatTableI())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = suite.Stats()
	}
}

// E2 — Table II (left): zero-shot Pass@1 with multiple choice.
func BenchmarkTableIIWithChoice(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	with, _ := suite.TableII()
	b.Logf("\n%s", chipvqa.FormatTableII(with, nil))
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.Evaluate(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2b — the same Table II sweep pinned to the serial engine: the
// baseline the parallel engine is measured against.
func BenchmarkTableIISerial(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = 1
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.Evaluate(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2c — the identical sweep on the pooled engine at GOMAXPROCS
// workers. Compare against BenchmarkTableIISerial for the speedup; the
// equivalence test proves the reports are byte-identical.
func BenchmarkTableIIParallel(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1 // auto: GOMAXPROCS
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.Evaluate(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2d — the full 12x142 (model, question) grid as one flattened task
// list on the pooled engine: the shape TableII actually runs.
func BenchmarkTableIIGrid(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, _ := suite.TableII()
		if len(with) != 12 {
			b.Fatal("short report set")
		}
	}
}

// E2e — the sharded grid sweep: the full (model, question) grid through
// EvaluateAllInto at fixed worker counts 1/2/4/8, each shard count
// first proven byte-identical to the workers=1 run via a digest over
// every model name, question ID, response and verdict. The scaling is
// recorded by the benchmark numbers but never asserted — on a 1-CPU
// host the sharded runs legitimately show none; only the structural
// property (identical output) is checked.
func BenchmarkTableIIGridSharded(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	models := zooModels(b, suite)
	serial := eval.Runner{Workers: 1}
	base := reportsDigest(serial.EvaluateAll(models, suite.Benchmark))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			r := eval.Runner{Workers: w}
			reports, err := r.EvaluateAllContext(context.Background(), models, suite.Benchmark)
			if err != nil {
				b.Fatal(err)
			}
			if d := reportsDigest(reports); d != base {
				b.Fatalf("workers=%d digest %s != serial digest %s", w, d, base)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.EvaluateAllInto(context.Background(), models, suite.Benchmark, reports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zooModels returns the suite's 12 Table II models in row order.
func zooModels(b *testing.B, suite *chipvqa.Suite) []chipvqa.Model {
	var models []chipvqa.Model
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// reportsDigest hashes every model name, question ID, response and
// verdict of a report set.
func reportsDigest(reports []*chipvqa.Report) string {
	h := sha256.New()
	for _, r := range reports {
		_, _ = h.Write([]byte(r.ModelName))
		for _, q := range r.Results {
			_, _ = h.Write([]byte{0})
			_, _ = h.Write([]byte(q.QuestionID))
			_, _ = h.Write([]byte(q.Response))
			if q.Correct {
				_, _ = h.Write([]byte{1})
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Hot-path micro-benchmarks (DESIGN.md §12): judging every stored
// (question, response) pair of one report and re-normalising the
// canonical golden texts. Both must report 0 allocs/op in the steady
// state — TestJudgeZeroAlloc and TestNormalizeZeroAlloc pin the same
// property as hard test failures.
func BenchmarkJudgeAll(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	rep, err := suite.Evaluate("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	qByID := make(map[string]*chipvqa.Question, suite.Benchmark.Len())
	for _, q := range suite.Benchmark.Questions {
		qByID[q.ID] = q
	}
	judge := eval.Judge{}
	for _, qr := range rep.Results { // warm-up: grow buffers, fill memo
		judge.Correct(qByID[qr.QuestionID], qr.Response)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qr := range rep.Results {
			judge.Correct(qByID[qr.QuestionID], qr.Response)
		}
	}
}

func BenchmarkNormalizeCanonical(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	var norms []string
	for _, q := range suite.Benchmark.Questions {
		norms = append(norms, eval.Normalize(q.Golden.Text))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range norms {
			_ = eval.Normalize(s)
		}
	}
}

// E3 — Table II (right): challenge collection (options removed).
func BenchmarkTableIINoChoice(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	var reports []*chipvqa.Report
	for _, name := range suite.ModelNames() {
		rep, err := suite.EvaluateChallenge(name)
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, rep)
	}
	b.Logf("\n%s", chipvqa.FormatTableII(reports, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range suite.ModelNames() {
			if _, err := suite.EvaluateChallenge(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E4 — Table III: agent system versus direct GPT-4o.
func BenchmarkTableIII(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	vals, err := suite.TableIII()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\nWith Choice: GPT4o %.2f  Agent %.2f\nNo Choice:   GPT4o %.2f  Agent %.2f",
		vals[0], vals[1], vals[2], vals[3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — §IV-B resolution study: GPT-4o on Digital at 1x/8x/16x.
func BenchmarkResolution(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	digital := &dataset.Benchmark{Name: "digital", Questions: suite.Benchmark.Filter(
		func(q *chipvqa.Question) bool { return q.Category == chipvqa.Digital })}
	for _, f := range []int{1, 8, 16} {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
		b.Logf("downsample %2dx: Pass@1 = %.2f", f, r.Evaluate(m, digital).Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range []int{1, 8, 16} {
			r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
			r.Evaluate(m, digital)
		}
	}
}

// E6 — Fig. 1/3 breadth: discipline x visual-type coverage matrix.
func BenchmarkCoverage(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.Logf("\n%s", dataset.FormatCoverage(suite.Benchmark.CoverageMatrix()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = suite.Benchmark.CoverageMatrix()
	}
}

// E7 — §IV-A LLaVA backbone scaling case study.
func BenchmarkBackboneScaling(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	for _, p := range vlm.LLaVAFamily() {
		rep, err := suite.Evaluate(p.Name)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%-16s backbone=%-12s strength=%.2f Pass@1=%.2f",
			p.Name, p.Backbone, p.BackboneStrength, rep.Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range vlm.LLaVAFamily() {
			if _, err := suite.Evaluate(p.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E8 — §IV-A MC-as-RAG effect: per-model gap between collections.
func BenchmarkChoiceGap(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	with, without := suite.TableII()
	for i := range with {
		b.Logf("%-20s gap=%+.2f", with[i].ModelName, with[i].Pass1()-without[i].Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, n := suite.TableII()
		_ = w[0].Pass1() - n[0].Pass1()
	}
}

// Ablation — guessing floor: what part of the MC advantage is the 25%
// guess floor? Compare the random-guess baseline on MC questions against
// an abstaining baseline.
func BenchmarkAblationNoGuess(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	mc := &dataset.Benchmark{Name: "mc", Questions: suite.Benchmark.Filter(
		func(q *chipvqa.Question) bool { return len(q.Choices) == 4 })}
	r := eval.Runner{}
	guess := r.Evaluate(guessBaseline{}, mc).Pass1()
	abstain := r.Evaluate(abstainBaseline{}, mc).Pass1()
	b.Logf("random guess on MC: %.2f   abstain: %.2f   floor contribution: %.2f",
		guess, abstain, guess-abstain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Evaluate(guessBaseline{}, mc)
	}
}

type guessBaseline struct{}

func (guessBaseline) Name() string { return "random-guess" }
func (guessBaseline) Answer(q *chipvqa.Question, _ chipvqa.InferenceOptions) string {
	if len(q.Choices) == 4 {
		return string(rune('a' + rng.Pick(4, "bench-guess", q.ID)))
	}
	return "unknown"
}

type abstainBaseline struct{}

func (abstainBaseline) Name() string                                              { return "abstain" }
func (abstainBaseline) Answer(*chipvqa.Question, chipvqa.InferenceOptions) string { return "" }

// Ablation — perception vs knowledge bottleneck: sweep the perception
// policy at fixed solve calibration; the pass rate barely moves at full
// resolution (the LLM backbone is the bottleneck, the paper's second
// finding) but collapses at 16x as perception tightens.
func BenchmarkAblationBottleneck(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	sim := m.(*vlm.SimulatedVLM)
	defer sim.SetPerception(vlm.DefaultPerception())
	for _, thr := range []float64{0.4, 0.6, 0.8, 1.0} {
		p := vlm.DefaultPerception()
		p.RecallThreshold = thr
		sim.SetPerception(p)
		r1 := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 1}}
		r16 := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 16}}
		b.Logf("recall threshold %.1f: pass@1 %.2f at 1x, %.2f at 16x",
			thr, r1.Evaluate(sim, suite.Benchmark).Pass1(),
			r16.Evaluate(sim, suite.Benchmark).Pass1())
	}
	sim.SetPerception(vlm.DefaultPerception())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 16}}
		r.Evaluate(sim, suite.Benchmark)
	}
}

// Ablation — judge strictness: the hybrid judge versus exact-match-only.
func BenchmarkAblationJudge(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	lenient := eval.Runner{Judge: eval.Judge{}}
	strict := eval.Runner{Judge: eval.Judge{Strict: true}}
	b.Logf("hybrid judge: %.2f   strict judge: %.2f",
		lenient.Evaluate(m, suite.Benchmark).Pass1(),
		strict.Evaluate(m, suite.Benchmark).Pass1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strict.Evaluate(m, suite.Benchmark)
	}
}

// Ablation — agent description fidelity: sweep the designer boost and
// watch the Table III gain move; at boost 0 the agent can only lose
// (information-lossy text relay), explaining the Manufacture regression.
func BenchmarkAblationAgentFidelity(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	tool := m.(*vlm.SimulatedVLM)
	r := eval.Runner{}
	base := r.Evaluate(tool, suite.Benchmark).Pass1()
	for _, boost := range []float64{0, 0.1, 0.21, 0.4} {
		ag := agent.New(tool)
		ag.Cfg.DesignerBoostMC = boost
		rep := r.Evaluate(ag, suite.Benchmark)
		b.Logf("designer boost %.2f: agent %.2f (GPT4o direct %.2f)", boost, rep.Pass1(), base)
	}
	b.ResetTimer()
	ag := agent.New(tool)
	for i := 0; i < b.N; i++ {
		r.Evaluate(ag, suite.Benchmark)
	}
}

// Extension — extended-collection generation (the paper's future-work
// dataset-collection direction): generate and evaluate a 50-question
// fold.
func BenchmarkExtendedCollection(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	ext, err := suite.Extended("bench-fold", 10)
	if err != nil {
		b.Fatal(err)
	}
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	r := eval.Runner{}
	b.Logf("extended fold: %d questions, GPT4o Pass@1 = %.2f",
		ext.Len(), r.Evaluate(m, ext).Pass1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold, err := suite.Extended("bench-fold", 10)
		if err != nil {
			b.Fatal(err)
		}
		r.Evaluate(m, fold)
	}
}

// Extension — the overlapped streaming path: a fresh 2,000-question
// extended fold streamed in 200-question shards through
// EvaluateShardsContext for all 12 models at 16x downsampling.
// StreamExtended builds shard k+1 while the pool evaluates shard k, so
// this times generation and evaluation overlapped. Before timing, the
// pooled run's digest is checked against a Workers: 1 run.
func BenchmarkStreamExtendedEval(b *testing.B) {
	const perCategory, shardSize = 400, 200
	suite := chipvqa.MustNewSuite()
	models := zooModels(b, suite)
	opts := eval.InferenceOptions{DownsampleFactor: 16}
	run := func(r eval.Runner, reports []*chipvqa.Report) {
		err := r.EvaluateShardsContext(context.Background(), models, func(yield func(chipvqa.Shard) error) error {
			return chipvqa.StreamExtended("bench-stream", perCategory, shardSize, yield)
		}, reports)
		if err != nil {
			b.Fatal(err)
		}
	}
	newReports := func() []*chipvqa.Report {
		reports := make([]*chipvqa.Report, len(models))
		for i := range reports {
			reports[i] = &chipvqa.Report{}
		}
		return reports
	}
	serial, reports := newReports(), newReports()
	run(eval.Runner{Workers: 1, Opts: opts}, serial)
	pooled := eval.Runner{Opts: opts}
	run(pooled, reports)
	if d, want := reportsDigest(reports), reportsDigest(serial); d != want {
		b.Fatalf("pooled stream digest %s != serial digest %s", d, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(pooled, reports)
	}
	b.ReportMetric(float64(b.N*len(models)*5*perCategory)/b.Elapsed().Seconds(), "events/s")
}

// Extension — domain-adaptation learning curve (the paper's future-work
// VLM-training direction): fine-tune LLaVA-7b on nested folds and
// evaluate held-out.
func BenchmarkFineTuneStudy(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("LLaVA-7b")
	if err != nil {
		b.Fatal(err)
	}
	base := m.(*vlm.SimulatedVLM)
	pool, err := suite.Extended("train-pool", 30)
	if err != nil {
		b.Fatal(err)
	}
	test, err := suite.Extended("test-fold", 10)
	if err != nil {
		b.Fatal(err)
	}
	curve := vlm.LearningCurve(base, pool, test, []int{0, 10, 30}, vlm.DefaultTraining())
	for _, pt := range curve {
		b.Logf("train %2d/category: held-out Pass@1 = %.3f", pt.TrainPerCategory, pt.Pass1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vlm.LearningCurve(base, pool, test, []int{0, 10, 30}, vlm.DefaultTraining())
	}
}

// Extension — statistical comparison machinery: bootstrap CI + paired
// McNemar on the Table II leaders.
func BenchmarkStatisticalComparison(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	res, cis, err := suite.Compare("GPT4o", "LLaMA-3.2-90B")
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("GPT4o %s vs LLaMA-3.2-90B %s; McNemar %s", cis[0], cis[1], res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := suite.Compare("GPT4o", "LLaMA-3.2-90B"); err != nil {
			b.Fatal(err)
		}
	}
}

// The 2000-resample bootstrap CI over one Table II report alone
// (chunk-parallel, batched binomial resampling), without the McNemar
// test and the two model sweeps BenchmarkStatisticalComparison adds.
func BenchmarkBootstrapCI(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	rep, err := suite.Evaluate("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.BootstrapCI(2000, 0.95)
	}
}

// Extension — item analysis: per-question difficulty and discrimination
// across the twelve models (the evidence behind the paper's
// "comprehensive difficulties" claim).
func BenchmarkItemAnalysis(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	r := eval.Runner{}
	var reports []*chipvqa.Report
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, r.Evaluate(m, suite.Benchmark))
	}
	items, err := eval.ItemAnalysis(reports)
	if err != nil {
		b.Fatal(err)
	}
	unsolved := 0
	for _, it := range items {
		if it.Difficulty == 0 {
			unsolved++
		}
	}
	b.Logf("%d/%d questions unsolved by every model; hardest: %s",
		unsolved, len(items), eval.HardestItems(items, 1)[0].QuestionID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ItemAnalysis(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// Supporting substrate benchmark — out-of-order vs in-order execution on
// a mixed instruction stream (the ILP engine behind the Architecture
// questions).
func BenchmarkOoOvsInOrder(b *testing.B) {
	prog := []arch.Instr{
		{Op: arch.OpLoad, Dest: 1, Src1: 9},
		{Op: arch.OpALU, Dest: 2, Src1: 8},
		{Op: arch.OpALU, Dest: 3, Src1: 8},
		{Op: arch.OpALU, Dest: 4, Src1: 1},
		{Op: arch.OpLoad, Dest: 5, Src1: 9},
		{Op: arch.OpALU, Dest: 6, Src1: 5},
		{Op: arch.OpALU, Dest: 7, Src1: 2, Src2: 3},
		{Op: arch.OpStore, Src1: 7, Src2: 9},
	}
	cfg := arch.DefaultOoO()
	ooo, err := arch.SimulateOoO(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inOrder, err := arch.InOrderBaselineCycles(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("OoO %d cycles (IPC %.2f) vs in-order %d cycles (speedup %.2fx)",
		ooo.Cycles, ooo.IPC(), inOrder, float64(inOrder)/float64(ooo.Cycles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.SimulateOoO(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Supporting substrate benchmark — aerial-image OPC: measure the
// proximity effect on a dense grating and the mask bias that corrects
// it (the physics behind the m01 RET question).
func BenchmarkAerialOPC(b *testing.B) {
	sim := manuf.NewAerialSimulator(manuf.KrF())
	const cd, pitch = 150.0, 400.0
	errBefore := sim.ProximityError(cd, pitch, 5)
	bias, ok := sim.ApplyBiasOPC(cd, pitch, 5)
	if !ok {
		b.Fatal("OPC did not converge")
	}
	b.Logf("dense grating CD error %.1f nm; corrective mask bias %.1f nm", errBefore, bias)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sim.ApplyBiasOPC(cd, pitch, 5); !ok {
			b.Fatal("OPC did not converge")
		}
	}
}

// Supporting micro-benchmarks: the raster pipeline the real benchmark
// images flow through (render + downsample), both frames handed back to
// the pixel pool.
func BenchmarkRenderPipeline(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	q := suite.Benchmark.Questions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := visual.Render(q.Visual)
		small := visual.Downsample(img, 8)
		visual.ReleaseImage(img)
		visual.ReleaseImage(small)
	}
}

// The span raster kernel cold: every question's scene rasterised from
// scratch, each frame handed back to the pixel pool. No cache — this is
// the kernel itself, amortised over all 142 figures.
func BenchmarkRenderAllCold(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range suite.Benchmark.Questions {
			img := visual.Render(q.Visual)
			visual.ReleaseImage(img)
		}
	}
}

// RenderQuestion per call over every question at 8x: a render and a
// downsample from the pixel pool, the frame handed back each time.
func BenchmarkRenderQuestion(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range suite.Benchmark.Questions {
			img := chipvqa.RenderQuestion(q, 8)
			visual.ReleaseImage(img)
		}
	}
}

// The separable downsample kernel alone, at the ablation factors.
func BenchmarkDownsample(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	img := visual.Render(suite.Benchmark.Questions[0].Visual)
	for _, f := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("%dx", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := visual.Downsample(img, f)
				visual.ReleaseImage(out)
			}
		})
	}
}

// §IV-B sweep at 16x over all 12 models. No scene cache is involved:
// each model's perception stage derives legibility loss in place for
// every question, so the sweep is 12 independent evaluations.
func BenchmarkResolutionSweepAllModels(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range suite.ModelNames() {
			if _, err := suite.EvaluateAtResolution(name, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildBenchmark times full dataset generation (all five
// discipline engines).
func BenchmarkBuildBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = chipvqa.MustNewSuite()
	}
}

func init() {
	// Fail fast in benchmarks if the benchmark composition drifts.
	s := chipvqa.MustNewSuite()
	if s.Benchmark.Len() != 142 {
		panic(fmt.Sprintf("benchmark has %d questions", s.Benchmark.Len()))
	}
}
