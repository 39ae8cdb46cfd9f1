// Command chipvqa regenerates every table and figure of the ChipVQA
// paper from the reproduction:
//
//	chipvqa stats              Table I benchmark statistics
//	chipvqa stats -coverage    Fig. 1/3 discipline x visual coverage
//	chipvqa eval               Table II, standard collection
//	chipvqa challenge          Table II, challenge collection
//	chipvqa eval -gap          per-model MC vs SA gap (§IV-A RAG effect)
//	chipvqa agent              Table III agent study
//	chipvqa resolution         §IV-B image resolution study
//	chipvqa export -o FILE     benchmark as JSON
//	chipvqa pack -o FILE       extended fold in the compact binary format
//	chipvqa render -dir DIR    rasterise every question to PNG
//	chipvqa ask -model M -q ID one model on one question (with transcript)
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"

	"repro"
	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// Exit codes follow the chipvqa-lint contract: 0 success, 1 runtime
// failure (including an interrupted evaluation, which still prints the
// partial report it has), 2 usage error. flag.ExitOnError FlagSets
// (newFlagSet) exit 2 with usage on stderr by construction.
func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the run's context: evaluation commands drain
	// cooperatively and report the consistent partial prefix they have
	// instead of dying mid-sweep, and `serve` begins its graceful drain.
	// Once the context is cancelled, stop() restores default signal
	// handling so a second signal kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stats":
		err = cmdStats(ctx, args)
	case "eval":
		err = cmdEval(ctx, args)
	case "challenge":
		err = cmdChallenge(ctx, args)
	case "agent":
		err = cmdAgent(ctx, args)
	case "resolution":
		err = cmdResolution(ctx, args)
	case "export":
		err = cmdExport(ctx, args)
	case "render":
		err = cmdRender(ctx, args)
	case "ask":
		err = cmdAsk(ctx, args)
	case "extended":
		err = cmdExtended(ctx, args)
	case "pack":
		err = cmdPack(ctx, args)
	case "compare":
		err = cmdCompare(ctx, args)
	case "items":
		err = cmdItems(ctx, args)
	case "adaptive":
		err = cmdAdaptive(ctx, args)
	case "finetune":
		err = cmdFineTune(ctx, args)
	case "bench":
		err = cmdBench(ctx, args)
	case "benchdiff":
		err = cmdBenchDiff(ctx, args)
	case "serve":
		err = cmdServe(ctx, args)
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "chipvqa: unknown command %q\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipvqa:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks command-line misuse detected after flag parsing
// (wrong positional arity, contradictory flags); main exits 2 for it,
// matching the flag.ExitOnError contract for parse failures.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

// exitCode maps a command's error to the process exit code: 0 success,
// 1 runtime failure or regression finding, 2 usage error.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// newFlagSet builds a subcommand FlagSet with the shared contract:
// parse failures print the flag defaults to stderr and exit 2 (usage
// error), matching chipvqa-lint.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chipvqa %s [flags]\n", name)
		fs.PrintDefaults()
	}
	return fs
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: chipvqa <command> [flags]

commands:
  stats        Table I statistics (-coverage for the Fig. 1/3 matrix)
  eval         Table II zero-shot evaluation, standard collection (-gap for MC/SA gaps)
  challenge    Table II challenge collection (multiple choice removed)
  agent        Table III agent study
  resolution   image-resolution study of §IV-B (-model, -category)
  export       write the benchmark as JSON (-o file)
  render       rasterise question visuals to PNG (-dir out, -factor N)
  ask          run one model on one question (-model, -q, -agent)
  extended     generate an extended collection (-seed, -n per category, -o file;
               -packed file loads a .cvqb pack, -stream -eval evaluates shard-at-a-time)
  pack         write an extended fold in the compact binary format (-seed, -n, -o, -check)
  compare      paired McNemar test + bootstrap CIs between two models (-a, -b)
  finetune     domain-adaptation learning-curve study (-model)
  items        per-question difficulty and discrimination analysis (-k, -challenge,
               -json for the machine-readable chipvqa-items/1 document)
  adaptive     IRT adaptive evaluation over an extended fold: calibrate a 2PL item
               bank from the full grid, then early-stopping tournament
               (-seed, -n, -budget, -runseed)
  bench        time the evaluation engine and write a perf snapshot (-o file)
  benchdiff    compare two bench snapshots; non-zero exit on regression (-tol)
  serve        eval-as-a-service HTTP daemon (-addr, -max-sessions,
               -workers-per-session, -drain-timeout, -packed file, -accesslog file)

evaluation commands take -workers N: 0 = auto (GOMAXPROCS), 1 = serial.`)
}

// zooModels returns the suite's model zoo in Table II row order.
func zooModels(suite *chipvqa.Suite) ([]chipvqa.Model, error) {
	names := suite.ModelNames()
	models := make([]chipvqa.Model, 0, len(names))
	for _, name := range names {
		m, err := suite.Model(name)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

// workersFlag registers the shared -workers knob: 0 (default) lets the
// engine pick GOMAXPROCS, 1 forces serial, N pins the pool size.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "evaluation workers (0 = auto/GOMAXPROCS, 1 = serial)")
}

// cmdStats only formats in-memory tables, so it takes no cancellation
// point: the blank context keeps the command signature uniform.
func cmdStats(_ context.Context, args []string) error {
	fs := newFlagSet("stats")
	coverage := fs.Bool("coverage", false, "print the category x visual-type coverage matrix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	if *coverage {
		fmt.Print(dataset.FormatCoverage(suite.Benchmark.CoverageMatrix()))
		return nil
	}
	fmt.Print(suite.FormatTableI())
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := newFlagSet("eval")
	gap := fs.Bool("gap", false, "print per-model MC-vs-SA gap instead of the full table")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	suite.Workers = *workers
	with, without, runErr := suite.TableIIContext(ctx)
	if *gap {
		fmt.Printf("%-20s %8s %8s %8s\n", "Model", "w/ MC", "w/o MC", "gap")
		for i := range with {
			w, n := with[i].Pass1(), without[i].Pass1()
			fmt.Printf("%-20s %8.2f %8.2f %8.2f\n", with[i].ModelName, w, n, w-n)
		}
	} else {
		fmt.Println("TABLE II  Zero-Shot Evaluation on ChipVQA (w/ and w/o multiple choice)")
		fmt.Print(chipvqa.FormatTableII(with, without))
	}
	if runErr != nil {
		// Interrupted: the table above covers the deterministic prefix
		// the pipeline finished; exit 1 per the CLI contract.
		fmt.Println("(run interrupted — table covers the completed prefix only)")
		return runErr
	}
	return nil
}

func cmdChallenge(ctx context.Context, args []string) error {
	fs := newFlagSet("challenge")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	suite.Workers = *workers
	var reports []*chipvqa.Report
	var runErr error
	for _, name := range suite.ModelNames() {
		rep, err := suite.EvaluateChallengeContext(ctx, name)
		if err != nil {
			// Keep the partial report: the models (and questions) already
			// judged still form a consistent prefix worth printing.
			reports = append(reports, rep)
			runErr = err
			break
		}
		reports = append(reports, rep)
	}
	fmt.Println("ChipVQA challenge collection (all questions short answer)")
	fmt.Print(chipvqa.FormatTableII(reports, nil))
	if runErr != nil {
		fmt.Println("(run interrupted — table covers the completed prefix only)")
	}
	return runErr
}

func cmdAgent(ctx context.Context, args []string) error {
	fs := newFlagSet("agent")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	suite.Workers = *workers
	vals, err := suite.TableIIIContext(ctx)
	if err != nil {
		return err
	}
	fmt.Println("TABLE III  Evaluation of Agent System on ChipVQA")
	fmt.Printf("%-12s %-8s %8s\n", "Collection", "Model", "Pass@1")
	fmt.Printf("%-12s %-8s %8.2f\n", "With Choice", "GPT4o", vals[0])
	fmt.Printf("%-12s %-8s %8.2f\n", "", "Agent", vals[1])
	fmt.Printf("%-12s %-8s %8.2f\n", "No Choice", "GPT4o", vals[2])
	fmt.Printf("%-12s %-8s %8.2f\n", "", "Agent", vals[3])
	return nil
}

func cmdResolution(ctx context.Context, args []string) error {
	fs := newFlagSet("resolution")
	model := fs.String("model", "GPT4o", "model to evaluate")
	category := fs.String("category", "Digital", "category (short name) or 'all'")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	m, err := suite.Model(*model)
	if err != nil {
		return err
	}
	questions := suite.Benchmark.Filter(func(q *chipvqa.Question) bool {
		return *category == "all" || q.Category.Short() == *category
	})
	if len(questions) == 0 {
		return fmt.Errorf("no questions in category %q", *category)
	}
	sub := &dataset.Benchmark{Name: *category, Questions: questions}
	fmt.Printf("Resolution study (§IV-B): model=%s category=%s (%d questions)\n",
		*model, *category, len(questions))
	for _, f := range []int{1, 8, 16} {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}, Workers: *workers}
		rep, err := r.EvaluateContext(ctx, m, sub)
		if err != nil {
			return err
		}
		fmt.Printf("  downsample %2dx: Pass@1 = %.2f\n", f, rep.Pass1())
	}
	return nil
}

func cmdExport(ctx context.Context, args []string) error {
	fs := newFlagSet("export")
	out := fs.String("o", "chipvqa.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err // interrupted before the file exists: leave nothing behind
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = suite.ExportJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr // a failed close loses buffered output; surface it
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d questions to %s\n", suite.Benchmark.Len(), *out)
	return nil
}

func cmdRender(ctx context.Context, args []string) error {
	fs := newFlagSet("render")
	dir := fs.String("dir", "renders", "output directory")
	factor := fs.Int("factor", 1, "downsample factor (1, 8, 16)")
	only := fs.String("q", "", "render only this question ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	count := 0
	for _, q := range suite.Benchmark.Questions {
		// One render per question can mean hundreds of files: honour
		// SIGINT between questions so an interrupted run stops at a
		// file boundary instead of plowing through the whole set.
		if err := ctx.Err(); err != nil {
			return err
		}
		if *only != "" && q.ID != *only {
			continue
		}
		// PNG encoding only reads pixels, so the shared cached image is
		// enough — no private clone per question.
		img := chipvqa.QuestionImage(q, *factor)
		path := filepath.Join(*dir, fmt.Sprintf("%s.png", q.ID))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = png.Encode(f, img)
		if cerr := f.Close(); err == nil {
			err = cerr // a failed close loses buffered pixels; surface it
		}
		if err != nil {
			return err
		}
		count++
	}
	fmt.Printf("rendered %d images to %s (factor %dx)\n", count, *dir, *factor)
	return nil
}

// cmdAsk evaluates one (model, question) pair — far too quick to need
// a cancellation point, hence the blank context.
func cmdAsk(_ context.Context, args []string) error {
	fs := newFlagSet("ask")
	model := fs.String("model", "GPT4o", "model name")
	qid := fs.String("q", "d01", "question ID")
	useAgent := fs.Bool("agent", false, "route through the agent system")
	challenge := fs.Bool("challenge", false, "use the challenge (no-choice) variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	bench := suite.Benchmark
	if *challenge {
		bench = suite.ChallengeSet
	}
	var q *chipvqa.Question
	for _, cand := range bench.Questions {
		if cand.ID == *qid {
			q = cand
			break
		}
	}
	if q == nil {
		return fmt.Errorf("unknown question %q", *qid)
	}
	fmt.Printf("question %s [%s, %s, visual: %s]\n%s\n\n",
		q.ID, q.Category, q.Type, q.Visual.Kind, q.FormatPrompt())
	var resp string
	judge := eval.Judge{}
	if *useAgent {
		base, err := suite.Model(*model)
		if err != nil {
			return err
		}
		sim, ok := base.(*vlm.SimulatedVLM)
		if !ok {
			return fmt.Errorf("model %q cannot act as a vision tool", *model)
		}
		ag := agent.New(sim)
		var transcript []agent.ToolCall
		resp, transcript = ag.Run(q, eval.InferenceOptions{})
		fmt.Print(agent.FormatTranscript(transcript))
	} else {
		m, err := suite.Model(*model)
		if err != nil {
			return err
		}
		resp = m.Answer(q, eval.InferenceOptions{})
	}
	fmt.Printf("\nmodel response: %s\n", resp)
	fmt.Printf("judged correct: %v\n", judge.Correct(q, resp))
	return nil
}

func cmdExtended(ctx context.Context, args []string) error {
	fs := newFlagSet("extended")
	seed := fs.String("seed", "fold-a", "fold seed; different seeds give disjoint collections")
	n := fs.Int("n", 10, "questions per category")
	out := fs.String("o", "", "optional JSON output file")
	evalModels := fs.Bool("eval", false, "also evaluate all models on the extended collection")
	packed := fs.String("packed", "", "load the fold from a packed .cvqb file instead of generating")
	stream := fs.Bool("stream", false, "with -eval: evaluate shard-at-a-time, never holding the fold in memory")
	shardSize := fs.Int("shard", 512, "shard size for -stream")
	downsample := fs.Int("downsample", 1, "image downsample factor for evaluation (1 = full resolution; §IV-B uses 8 and 16)")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	if *stream && (*out != "" || !*evalModels) {
		return fmt.Errorf("-stream requires -eval and is incompatible with -o (the fold is never materialised)")
	}
	// shardStream drives the streaming path from whichever producer was
	// asked for: shards decoded from a pack, or shards regenerated from
	// the seed.
	shardStream := func(yield func(chipvqa.Shard) error) error {
		if *packed != "" {
			f, err := os.Open(*packed)
			if err != nil {
				return err
			}
			err = dataset.StreamPack(f, *shardSize, yield)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
		return chipvqa.StreamExtended(*seed, *n, *shardSize, yield)
	}
	if *stream {
		r := eval.Runner{Workers: *workers, Opts: eval.InferenceOptions{DownsampleFactor: *downsample}}
		models, err := zooModels(suite)
		if err != nil {
			return err
		}
		reports := make([]*chipvqa.Report, len(models))
		for i := range reports {
			reports[i] = &chipvqa.Report{}
		}
		total := 0
		err = r.EvaluateShardsContext(ctx, models, func(yield func(chipvqa.Shard) error) error {
			return shardStream(func(sh chipvqa.Shard) error {
				total += len(sh.Questions)
				return yield(sh)
			})
		}, reports)
		fmt.Printf("streamed %d questions (shard size %d)\n", total, *shardSize)
		fmt.Print(chipvqa.FormatTableII(reports, nil))
		if err != nil {
			fmt.Println("(run interrupted — table covers the completed prefix only)")
			return err
		}
		return nil
	}
	var ext *chipvqa.Benchmark
	if *packed != "" {
		data, err := os.ReadFile(*packed)
		if err != nil {
			return err
		}
		if ext, err = dataset.ReadPackBytes(data); err != nil {
			return fmt.Errorf("%s: %w", *packed, err)
		}
	} else if ext, err = suite.Extended(*seed, *n); err != nil {
		return err
	}
	stats := ext.ComputeStats()
	fmt.Printf("extended collection %q: %d questions (%d MC / %d SA)\n",
		ext.Name, stats.Total, stats.MC, stats.SA)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		err = ext.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr // a failed close loses buffered output; surface it
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *evalModels {
		r := eval.Runner{Workers: *workers, Opts: eval.InferenceOptions{DownsampleFactor: *downsample}}
		models, err := zooModels(suite)
		if err != nil {
			return err
		}
		reports, err := r.EvaluateAllContext(ctx, models, ext)
		fmt.Print(chipvqa.FormatTableII(reports, nil))
		if err != nil {
			fmt.Println("(run interrupted — table covers the completed prefix only)")
			return err
		}
	}
	return nil
}

// cmdPack writes an extended fold in the compact binary pack format,
// streaming shards straight into the encoder so the fold is never held
// in memory whole. -check reloads the file through the full validation
// path (CRC, framing, per-question Validate) and times the cold load.
func cmdPack(ctx context.Context, args []string) error {
	fs := newFlagSet("pack")
	seed := fs.String("seed", "fold-a", "fold seed; different seeds give disjoint collections")
	n := fs.Int("n", 10, "questions per category")
	shardSize := fs.Int("shard", 512, "shard size for the streaming writer")
	out := fs.String("o", "chipvqa.cvqb", "packed output file")
	check := fs.Bool("check", false, "read the pack back and verify it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	pw := dataset.NewPackWriter(f, fmt.Sprintf("ChipVQA-extended-%s", *seed))
	count := 0
	start := now()
	err = chipvqa.StreamExtended(*seed, *n, *shardSize, func(sh chipvqa.Shard) error {
		// Shards stream for as long as -n asks; stop at a shard
		// boundary when interrupted instead of finishing the fold.
		if err := ctx.Err(); err != nil {
			return err
		}
		count += len(sh.Questions)
		return pw.WriteShard(sh)
	})
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr // a failed close loses buffered bytes; surface it
	}
	if err != nil {
		return err
	}
	elapsed := now().Sub(start)
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("packed %d questions (%d bytes) to %s in %.0f ms\n",
		count, info.Size(), *out, float64(elapsed.Nanoseconds())/1e6)
	if *check {
		data, err := os.ReadFile(*out)
		if err != nil {
			return err
		}
		start = now()
		loaded, err := dataset.ReadPackBytes(data)
		if err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		loadMS := float64(now().Sub(start).Nanoseconds()) / 1e6
		if loaded.Len() != count {
			return fmt.Errorf("check failed: loaded %d questions, packed %d", loaded.Len(), count)
		}
		fmt.Printf("check: loaded %d questions in %.0f ms (CRC and per-question validation passed)\n",
			loaded.Len(), loadMS)
	}
	return nil
}

func cmdCompare(ctx context.Context, args []string) error {
	fs := newFlagSet("compare")
	a := fs.String("a", "GPT4o", "first model")
	b := fs.String("b", "LLaMA-3.2-90B", "second model")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	suite.Workers = *workers
	res, cis, err := suite.CompareContext(ctx, *a, *b)
	if err != nil {
		return err
	}
	fmt.Printf("%s: Pass@1 %s\n", *a, cis[0])
	fmt.Printf("%s: Pass@1 %s\n", *b, cis[1])
	fmt.Printf("McNemar (paired, continuity-corrected): %s\n", res)
	if res.Significant(0.05) {
		fmt.Println("difference is significant at the 5% level")
	} else {
		fmt.Println("difference is NOT significant at the 5% level on 142 questions")
	}
	return nil
}

func cmdFineTune(ctx context.Context, args []string) error {
	fs := newFlagSet("finetune")
	model := fs.String("model", "LLaVA-7b", "base model to adapt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	base, err := suite.Model(*model)
	if err != nil {
		return err
	}
	sim, ok := base.(*vlm.SimulatedVLM)
	if !ok {
		return fmt.Errorf("model %q cannot be fine-tuned", *model)
	}
	pool, err := suite.Extended("train-pool", 30)
	if err != nil {
		return err
	}
	test, err := suite.Extended("test-fold", 10)
	if err != nil {
		return err
	}
	fmt.Printf("domain-adaptation study: base=%s, train pool=%d, held-out test=%d\n",
		*model, pool.Len(), test.Len())
	// The learning-curve sweep evaluates five adapted models; bail out
	// before it rather than after an interrupt has been ignored.
	if err := ctx.Err(); err != nil {
		return err
	}
	curve := vlm.LearningCurve(sim, pool, test, []int{0, 5, 10, 20, 30}, vlm.DefaultTraining())
	for _, pt := range curve {
		fmt.Printf("  train %2d/category: held-out Pass@1 = %.3f\n", pt.TrainPerCategory, pt.Pass1)
	}
	fmt.Println("(simulated adaptation; see DESIGN.md for the exposure model)")
	return nil
}

func cmdItems(ctx context.Context, args []string) error {
	fs := newFlagSet("items")
	k := fs.Int("k", 10, "how many hardest items to list")
	challenge := fs.Bool("challenge", false, "analyse the challenge collection instead")
	asJSON := fs.Bool("json", false, "emit the machine-readable chipvqa-items/1 document instead of text")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	bench := suite.Benchmark
	collection := "standard"
	if *challenge {
		bench = suite.ChallengeSet
		collection = "challenge"
	}
	r := eval.Runner{Workers: *workers}
	models, err := zooModels(suite)
	if err != nil {
		return err
	}
	// Item statistics over a truncated grid would be silently biased, so
	// an interrupted run aborts instead of analysing the partial prefix.
	reports, err := r.EvaluateAllContext(ctx, models, bench)
	if err != nil {
		return err
	}
	items, err := eval.ItemAnalysis(reports)
	if err != nil {
		return err
	}
	if *asJSON {
		return writeItemsJSON(os.Stdout, collection, len(models), items)
	}
	fmt.Print(eval.FormatItemReport(items, *k))
	return nil
}

// itemsDocument is the machine-readable form of the item analysis. The
// schema is versioned like the bench snapshots, items are sorted by
// QuestionID and solver lists alphabetically, so the document is
// byte-stable across runs and worker counts.
type itemsDocument struct {
	Schema     string       `json:"schema"`
	Collection string       `json:"collection"`
	Models     int          `json:"models"`
	Items      []itemRecord `json:"items"`
}

type itemRecord struct {
	QuestionID     string   `json:"question_id"`
	Category       string   `json:"category"`
	Difficulty     float64  `json:"difficulty"`
	Discrimination float64  `json:"discrimination"`
	CorrectModels  []string `json:"correct_models"`
}

func writeItemsJSON(w io.Writer, collection string, nModels int, items []eval.ItemStats) error {
	doc := itemsDocument{
		Schema:     "chipvqa-items/1",
		Collection: collection,
		Models:     nModels,
		Items:      make([]itemRecord, 0, len(items)),
	}
	for _, it := range items {
		solvers := append([]string(nil), it.CorrectModels...)
		sort.Strings(solvers)
		if solvers == nil {
			solvers = []string{} // unsolved items serialise as [], not null
		}
		doc.Items = append(doc.Items, itemRecord{
			QuestionID:     it.QuestionID,
			Category:       it.Category.String(),
			Difficulty:     it.Difficulty,
			Discrimination: it.Discrimination,
			CorrectModels:  solvers,
		})
	}
	sort.Slice(doc.Items, func(i, j int) bool {
		return doc.Items[i].QuestionID < doc.Items[j].QuestionID
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func cmdAdaptive(ctx context.Context, args []string) error {
	fs := newFlagSet("adaptive")
	seed := fs.String("seed", "fold-j", "extended-fold seed to calibrate and tournament against")
	n := fs.Int("n", 30, "questions per category in the extended fold")
	budget := fs.Int("budget", 0, "total question budget across all models (0 = a third of the full grid)")
	runSeed := fs.String("runseed", "", "tournament tie-break seed (default \"adaptive\")")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	suite.Workers = *workers
	cfg := chipvqa.AdaptiveConfig{Seed: *runSeed, TotalBudget: *budget}
	res, runErr := suite.AdaptiveContext(ctx, *seed, *n, cfg)
	if runErr != nil && res == nil {
		return runErr
	}
	fmt.Printf("ADAPTIVE  IRT tournament over extended fold %q (%d models, %d-question bank)\n",
		*seed, len(res.Standings), res.GridQuestions/max(len(res.Standings), 1))
	standings := append([]chipvqa.AdaptiveStanding(nil), res.Standings...)
	sort.Slice(standings, func(i, j int) bool {
		if standings[i].Ability != standings[j].Ability {
			return standings[i].Ability > standings[j].Ability
		}
		return standings[i].Model < standings[j].Model
	})
	fmt.Printf("%-20s %8s %6s %6s  %s\n", "Model", "ability", "se", "asked", "stop")
	for _, s := range standings {
		fmt.Printf("%-20s %8.3f %6.3f %6d  %s\n", s.Model, s.Ability, s.SE, s.Asked, s.StopReason)
	}
	fmt.Printf("questions asked %d / %d full grid (%.1f%%)\n",
		res.QuestionsAsked, res.GridQuestions,
		100*float64(res.QuestionsAsked)/float64(max(res.GridQuestions, 1)))
	if res.RankAgreement == res.RankAgreement { // not NaN
		fmt.Printf("rank agreement vs full-grid Pass@1: %.3f\n", res.RankAgreement)
	}
	if runErr != nil {
		fmt.Println("(run interrupted — standings cover the recorded prefix only)")
		return runErr
	}
	return nil
}

// benchSnapshot is the schema of the repo's recorded perf trajectory
// (BENCH_1.json and successors): wall time of the headline Table II
// sweep under the serial and parallel engines, the cached render path,
// the zero-alloc judge/normalise hot paths, and the scene-cache
// effectiveness counters. Schema v3 adds an *_allocs_per_op sibling to
// every benchmarked *_ns_per_op field (allocation regressions are as
// real as time regressions on the hot paths of DESIGN.md §12), the
// judge/normalise micro-benchmarks, and the sharded table_ii_grid
// section recording the same grid sweep at worker counts 1/2/4/8 with
// a byte-identity assertion across them. Schema v4 adds the scale
// section of DESIGN.md §13: binary-pack encode/decode times at 10k
// questions, the cold-load-vs-regeneration speedup, streaming-eval
// throughput at 10k and 100k questions, and the scene-cache byte
// pressure of the budgeted streaming run. Schema v5 adds the adaptive
// section of DESIGN.md §15: the IRT tournament's question count
// against the full grid and its rank agreement with the full-grid
// ranking — benchdiff fails on any rank-agreement decrease.
type benchSnapshot struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	// Table II standard collection: 12 models x 142 questions. The
	// parallel run is pinned to GOMAXPROCS = NumCPU so snapshots taken
	// under a restricted GOMAXPROCS still record the machine's capability.
	TableIISerialNsPerOp       int64   `json:"table_ii_serial_ns_per_op"`
	TableIISerialAllocsPerOp   int64   `json:"table_ii_serial_allocs_per_op"`
	TableIIParallelNsPerOp     int64   `json:"table_ii_parallel_ns_per_op"`
	TableIIParallelAllocsPerOp int64   `json:"table_ii_parallel_allocs_per_op"`
	TableIISpeedup             float64 `json:"table_ii_speedup"`

	// Sharded grid sweep: the full (model, question) grid through
	// EvaluateAllInto at fixed worker counts. The digest of every
	// sharded run is asserted byte-identical to the workers=1 run
	// before timing; the scaling is recorded but not asserted (a 1-CPU
	// host legitimately shows none).
	TableIIGrid []gridPoint `json:"table_ii_grid"`

	// §IV-B-style 16x resolution pass over the full collection: cold is
	// the first pass after a cache reset (pays every scene derivation),
	// warm is the steady state.
	Resolution16ColdNs          int64 `json:"resolution16_cold_ns"`
	Resolution16WarmNsPerOp     int64 `json:"resolution16_warm_ns_per_op"`
	Resolution16WarmAllocsPerOp int64 `json:"resolution16_warm_allocs_per_op"`

	// Raster kernel, no cache: rasterise every question's scene from
	// scratch and hand each frame back to the pixel pool. This is the
	// span kernel's headline number.
	RenderAllColdNsPerOp     int64 `json:"render_all_cold_ns_per_op"`
	RenderAllColdAllocsPerOp int64 `json:"render_all_cold_allocs_per_op"`

	// Rendering every question at 8x through the scene cache: warm is
	// the zero-copy QuestionImage accessor, clone is RenderQuestion's
	// private copy — the gap is the per-call cost of cloning.
	RenderAll8xWarmNsPerOp      int64 `json:"render_all_8x_warm_ns_per_op"`
	RenderAll8xWarmAllocsPerOp  int64 `json:"render_all_8x_warm_allocs_per_op"`
	RenderAll8xCloneNsPerOp     int64 `json:"render_all_8x_clone_ns_per_op"`
	RenderAll8xCloneAllocsPerOp int64 `json:"render_all_8x_clone_allocs_per_op"`

	// 2000-resample bootstrap CI over one report (chunk-parallel,
	// batched binomial resampling).
	BootstrapCINsPerOp     int64 `json:"bootstrap_ci_ns_per_op"`
	BootstrapCIAllocsPerOp int64 `json:"bootstrap_ci_allocs_per_op"`

	// Judging all 142 stored (question, response) pairs of one report,
	// and re-normalising the 142 canonical golden texts: the zero-alloc
	// hot paths — both allocs_per_op fields must be 0 in the steady
	// state (TestJudgeZeroAlloc / TestNormalizeZeroAlloc pin this).
	JudgeAllNsPerOp      int64 `json:"judge_all_ns_per_op"`
	JudgeAllAllocsPerOp  int64 `json:"judge_all_allocs_per_op"`
	NormalizeNsPerOp     int64 `json:"normalize_ns_per_op"`
	NormalizeAllocsPerOp int64 `json:"normalize_allocs_per_op"`

	RenderCacheHits    uint64  `json:"render_cache_hits"`
	RenderCacheMisses  uint64  `json:"render_cache_misses"`
	RenderCacheHitRate float64 `json:"render_cache_hit_rate"`

	// Scale section (schema v4). pack_10k_cold_ns generates and encodes
	// a 10k-question fold; pack_load_10k_ns cold-decodes the same bytes;
	// the speedup is their ratio (the codec's reason to exist — see the
	// >= 10x gate in internal/core). Streaming-eval throughput runs one
	// model shard-at-a-time under a 1 MiB scene-cache budget; generation
	// is inline, so qps is the end-to-end streaming number. The cache
	// fields record the byte pressure of the 100k run.
	Pack10kColdNs        int64   `json:"pack_10k_cold_ns"`
	Pack10kBytes         int64   `json:"pack_10k_bytes"`
	PackLoad10kNs        int64   `json:"pack_load_10k_ns"`
	PackLoad10kSpeedup   float64 `json:"pack_load_10k_speedup"`
	StreamEval10kQPS     float64 `json:"stream_eval_10k_qps"`
	StreamEval100kQPS    float64 `json:"stream_eval_100k_qps"`
	StreamCacheBudget    int64   `json:"stream_cache_budget_bytes"`
	StreamCachePeakBytes int64   `json:"stream_cache_peak_bytes"`
	StreamCacheEvictions uint64  `json:"stream_cache_evictions"`

	// Adaptive section (schema v5): the acceptance-fold IRT tournament.
	// adaptive_rank_agreement compares the adaptive ability ranking to
	// the full-grid Pass@1 ranking (1.0 = every strict pair reproduced)
	// and is quality-gated by benchdiff: any decrease fails the diff.
	AdaptiveQuestionsAsked    int     `json:"adaptive_questions_asked"`
	AdaptiveFullGridQuestions int     `json:"adaptive_full_grid_questions"`
	AdaptiveRankAgreement     float64 `json:"adaptive_rank_agreement"`
	AdaptiveNs                int64   `json:"adaptive_ns"`
}

// gridPoint is one worker-count sample of the sharded grid sweep.
type gridPoint struct {
	Workers     int   `json:"workers"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// reportsDigest condenses a report set into a hash covering everything
// determinism guarantees: model order, question order, responses and
// verdicts. Two runs are byte-identical iff their digests match.
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

func cmdBench(ctx context.Context, args []string) error {
	fs := newFlagSet("bench")
	out := fs.String("o", "BENCH_1.json", "snapshot output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	names := suite.ModelNames()
	tableII := func(workers int) testing.BenchmarkResult {
		suite.Workers = workers
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					if _, err := suite.Evaluate(name); err != nil {
						panic(err)
					}
				}
			}
		})
	}
	fmt.Println("timing Table II sweep (12 models x 142 questions)...")
	serial := tableII(1)
	// Pin the parallel run to the machine's full core count even when the
	// process was started with a lower GOMAXPROCS, then restore.
	prevProcs := runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := tableII(-1)
	runtime.GOMAXPROCS(prevProcs)

	// Resolution study: cold pass pays every (scene, factor) derivation
	// once; the warm steady state reuses them across models and runs.
	suite.Workers = -1
	chipvqa.ResetRenderCache()
	start := now()
	if _, err := suite.EvaluateAtResolution("GPT4o", 16); err != nil {
		return err
	}
	cold := now().Sub(start)
	res16 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := suite.EvaluateAtResolution("GPT4o", 16); err != nil {
				panic(err)
			}
		}
	})
	renderCold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range suite.Benchmark.Questions {
				img := visual.Render(q.Visual)
				visual.ReleaseImage(img)
			}
		}
	})
	render8 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range suite.Benchmark.Questions {
				_ = chipvqa.QuestionImage(q, 8)
			}
		}
	})
	render8Clone := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range suite.Benchmark.Questions {
				img := chipvqa.RenderQuestion(q, 8)
				visual.ReleaseImage(img) // caller-owned clone, safe to recycle
			}
		}
	})
	rep, err := suite.Evaluate("GPT4o")
	if err != nil {
		return err
	}
	boot := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = rep.BootstrapCI(2000, 0.95)
		}
	})

	// Judge hot path: re-judge every stored (question, response) pair of
	// the GPT4o report. Steady-state allocs/op must be 0 (the scratch
	// buffers and expression memo absorb everything after warm-up).
	qByID := make(map[string]*chipvqa.Question, len(suite.Benchmark.Questions))
	for _, q := range suite.Benchmark.Questions {
		qByID[q.ID] = q
	}
	judge := eval.Judge{}
	for _, qr := range rep.Results { // warm-up: grow buffers, fill memo
		judge.Correct(qByID[qr.QuestionID], qr.Response)
	}
	judgeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, qr := range rep.Results {
				judge.Correct(qByID[qr.QuestionID], qr.Response)
			}
		}
	})
	// Normalise hot path over canonical inputs: the fast-path gate must
	// return every golden text unchanged without allocating.
	norms := make([]string, 0, len(suite.Benchmark.Questions))
	for _, q := range suite.Benchmark.Questions {
		norms = append(norms, eval.Normalize(q.Golden.Text))
	}
	normRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range norms {
				_ = eval.Normalize(s)
			}
		}
	})

	// Sharded grid sweep: the digest of every worker count must match
	// the workers=1 run byte for byte before any timing is recorded.
	fmt.Println("timing sharded grid sweep (workers 1/2/4/8)...")
	models, err := zooModels(suite)
	if err != nil {
		return err
	}
	var grid []gridPoint
	var baseDigest string
	for _, w := range []int{1, 2, 4, 8} {
		r := eval.Runner{Workers: w}
		reports, err := r.EvaluateAllContext(ctx, models, suite.Benchmark)
		if err != nil {
			return err
		}
		d := reportsDigest(reports)
		switch {
		case baseDigest == "":
			baseDigest = d
		case d != baseDigest:
			return fmt.Errorf("grid sweep not deterministic: workers=%d digest %s != workers=1 digest %s",
				w, d, baseDigest)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.EvaluateAllInto(ctx, models, suite.Benchmark, reports); err != nil {
					panic(err)
				}
			}
		})
		grid = append(grid, gridPoint{Workers: w, NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()})
	}
	stats := chipvqa.RenderCacheStats()

	// Scale section (schema v4). Captured after the cache counters above
	// so the budgeted streaming runs (which reset the cache) don't
	// clobber the sweep's hit/miss record.
	fmt.Println("timing pack codec and streaming evaluation (10k/100k)...")
	const packPerCat = 2000 // 10k questions
	var packBuf bytes.Buffer
	pw := dataset.NewPackWriter(&packBuf, "bench-pack")
	start = now()
	if err := chipvqa.StreamExtended("bench-pack", packPerCat, 512, pw.WriteShard); err != nil {
		return err
	}
	if err := pw.Close(); err != nil {
		return err
	}
	packCold := now().Sub(start)
	start = now()
	if _, err := dataset.ReadPackBytes(packBuf.Bytes()); err != nil {
		return err
	}
	packLoad := now().Sub(start)

	const streamBudget = 1 << 20
	var streamCache visual.CacheStats
	streamQPS := func(perCat int) (float64, error) {
		chipvqa.ResetRenderCache()
		chipvqa.SetRenderCacheBudget(streamBudget)
		m, err := suite.Model("GPT4o")
		if err != nil {
			return 0, err
		}
		r := eval.Runner{Workers: -1, Opts: eval.InferenceOptions{DownsampleFactor: 8}}
		start := now()
		reports := []*chipvqa.Report{{}}
		err = r.EvaluateShardsContext(ctx, []chipvqa.Model{m}, func(yield func(chipvqa.Shard) error) error {
			return chipvqa.StreamExtended("bench-stream", perCat, 1024, yield)
		}, reports)
		elapsed := now().Sub(start)
		streamCache = chipvqa.RenderCacheStats()
		chipvqa.SetRenderCacheBudget(0)
		chipvqa.ResetRenderCache()
		if err != nil {
			return 0, err
		}
		return float64(len(reports[0].Results)) / elapsed.Seconds(), nil
	}
	qps10k, err := streamQPS(2000)
	if err != nil {
		return err
	}
	qps100k, err := streamQPS(20000)
	if err != nil {
		return err
	}

	// Adaptive section (schema v5): the acceptance-fold tournament —
	// calibrate on the fold's full grid, then tournament the zoo with a
	// third of the grid's question budget. The timing covers both halves.
	fmt.Println("timing adaptive IRT tournament (acceptance fold)...")
	suite.Workers = -1
	start = now()
	adp, err := suite.AdaptiveContext(ctx, "fold-j", 30, chipvqa.AdaptiveConfig{Seed: "acceptance"})
	if err != nil {
		return err
	}
	adaptiveNs := now().Sub(start).Nanoseconds()

	snap := benchSnapshot{
		Schema:                      "chipvqa-bench/5",
		Date:                        snapshotDate(),
		GoMaxProcs:                  runtime.GOMAXPROCS(0),
		NumCPU:                      runtime.NumCPU(),
		TableIISerialNsPerOp:        serial.NsPerOp(),
		TableIISerialAllocsPerOp:    serial.AllocsPerOp(),
		TableIIParallelNsPerOp:      parallel.NsPerOp(),
		TableIIParallelAllocsPerOp:  parallel.AllocsPerOp(),
		TableIIGrid:                 grid,
		Resolution16ColdNs:          cold.Nanoseconds(),
		Resolution16WarmNsPerOp:     res16.NsPerOp(),
		Resolution16WarmAllocsPerOp: res16.AllocsPerOp(),
		RenderAllColdNsPerOp:        renderCold.NsPerOp(),
		RenderAllColdAllocsPerOp:    renderCold.AllocsPerOp(),
		RenderAll8xWarmNsPerOp:      render8.NsPerOp(),
		RenderAll8xWarmAllocsPerOp:  render8.AllocsPerOp(),
		RenderAll8xCloneNsPerOp:     render8Clone.NsPerOp(),
		RenderAll8xCloneAllocsPerOp: render8Clone.AllocsPerOp(),
		BootstrapCINsPerOp:          boot.NsPerOp(),
		BootstrapCIAllocsPerOp:      boot.AllocsPerOp(),
		JudgeAllNsPerOp:             judgeRes.NsPerOp(),
		JudgeAllAllocsPerOp:         judgeRes.AllocsPerOp(),
		NormalizeNsPerOp:            normRes.NsPerOp(),
		NormalizeAllocsPerOp:        normRes.AllocsPerOp(),
		RenderCacheHits:             stats.Hits,
		RenderCacheMisses:           stats.Misses,
		RenderCacheHitRate:          stats.HitRate(),
		Pack10kColdNs:               packCold.Nanoseconds(),
		Pack10kBytes:                int64(packBuf.Len()),
		PackLoad10kNs:               packLoad.Nanoseconds(),
		StreamEval10kQPS:            qps10k,
		StreamEval100kQPS:           qps100k,
		StreamCacheBudget:           streamBudget,
		StreamCachePeakBytes:        streamCache.PeakBytes,
		StreamCacheEvictions:        streamCache.Evictions,
		AdaptiveQuestionsAsked:      adp.QuestionsAsked,
		AdaptiveFullGridQuestions:   adp.GridQuestions,
		AdaptiveRankAgreement:       adp.RankAgreement,
		AdaptiveNs:                  adaptiveNs,
	}
	if parallel.NsPerOp() > 0 {
		snap.TableIISpeedup = float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
	}
	if packLoad > 0 {
		snap.PackLoad10kSpeedup = float64(packCold.Nanoseconds()) / float64(packLoad.Nanoseconds())
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("Table II: serial %.1f ms/op, parallel %.1f ms/op (%.2fx, NumCPU=%d)\n",
		float64(snap.TableIISerialNsPerOp)/1e6, float64(snap.TableIIParallelNsPerOp)/1e6,
		snap.TableIISpeedup, snap.NumCPU)
	fmt.Printf("16x resolution: cold %.1f ms, warm %.1f ms/op\n",
		float64(snap.Resolution16ColdNs)/1e6, float64(snap.Resolution16WarmNsPerOp)/1e6)
	fmt.Printf("render all 142: cold %.1f ms/op; 8x warm %.3f ms/op, 8x clone %.3f ms/op\n",
		float64(snap.RenderAllColdNsPerOp)/1e6,
		float64(snap.RenderAll8xWarmNsPerOp)/1e6, float64(snap.RenderAll8xCloneNsPerOp)/1e6)
	fmt.Printf("bootstrap CI: %.3f ms/op (%d allocs/op)\n",
		float64(snap.BootstrapCINsPerOp)/1e6, snap.BootstrapCIAllocsPerOp)
	fmt.Printf("judge 142 pairs: %.1f us/op (%d allocs/op); normalize 142: %.1f us/op (%d allocs/op)\n",
		float64(snap.JudgeAllNsPerOp)/1e3, snap.JudgeAllAllocsPerOp,
		float64(snap.NormalizeNsPerOp)/1e3, snap.NormalizeAllocsPerOp)
	for _, g := range snap.TableIIGrid {
		fmt.Printf("grid workers=%d: %.1f ms/op (%d allocs/op)\n",
			g.Workers, float64(g.NsPerOp)/1e6, g.AllocsPerOp)
	}
	fmt.Printf("render cache: %d hits / %d misses (%.1f%% hit rate)\n",
		stats.Hits, stats.Misses, 100*stats.HitRate())
	fmt.Printf("pack 10k: encode %.0f ms (%d bytes), cold load %.1f ms (%.1fx)\n",
		float64(snap.Pack10kColdNs)/1e6, snap.Pack10kBytes,
		float64(snap.PackLoad10kNs)/1e6, snap.PackLoad10kSpeedup)
	fmt.Printf("stream eval: %.0f q/s at 10k, %.0f q/s at 100k (cache peak %d of %d budget, %d evictions)\n",
		snap.StreamEval10kQPS, snap.StreamEval100kQPS,
		snap.StreamCachePeakBytes, snap.StreamCacheBudget, snap.StreamCacheEvictions)
	fmt.Printf("adaptive: %d of %d questions (%.1f%%), rank agreement %.3f, %.0f ms total\n",
		snap.AdaptiveQuestionsAsked, snap.AdaptiveFullGridQuestions,
		100*float64(snap.AdaptiveQuestionsAsked)/float64(max(snap.AdaptiveFullGridQuestions, 1)),
		snap.AdaptiveRankAgreement, float64(snap.AdaptiveNs)/1e6)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// cmdBenchDiff compares two bench snapshots field by field:
// `chipvqa benchdiff OLD.json NEW.json`. A regression — any
// *_ns_per_op growing more than 20%, any *_allocs_per_op growing at
// all, or any *rank_agreement decreasing at all — makes the command
// fail, which is what lets scripts/benchdiff.sh gate on it. Fields present in only one snapshot (schema evolution)
// are reported informationally and never fail the diff, so snapshots
// with different schema versions diff on their shared fields. When the
// two snapshots were taken on machines with different num_cpu, timing
// fields are not comparable: they are printed with a skipped-field
// note and never counted as regressions (allocs/op is
// machine-independent and still gates).
// cmdBenchDiff compares two small JSON files — no cancellation point
// needed, hence the blank context.
func cmdBenchDiff(_ context.Context, args []string) error {
	fs := newFlagSet("benchdiff")
	tol := fs.Float64("tol", 0.20, "allowed fractional ns/op growth before failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usagef("usage: chipvqa benchdiff OLD.json NEW.json")
	}
	oldSnap, oldSchema, err := loadFlatSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	newSnap, newSchema, err := loadFlatSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}
	if oldSchema != newSchema {
		fmt.Printf("note: schema %q vs %q — only shared fields are compared; the rest are listed informationally\n",
			oldSchema, newSchema)
	}
	gateTiming := oldSnap["num_cpu"] == newSnap["num_cpu"]
	if !gateTiming {
		fmt.Printf("note: num_cpu %g vs %g — timing fields skipped (not comparable across machines); allocs/op still gates\n",
			oldSnap["num_cpu"], newSnap["num_cpu"])
	}
	keys := make([]string, 0, len(oldSnap))
	for k := range oldSnap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regressions []string
	for _, k := range keys {
		ov := oldSnap[k]
		nv, ok := newSnap[k]
		if !ok {
			fmt.Printf("  %-40s dropped (was %g)\n", k, ov)
			continue
		}
		switch {
		case strings.HasSuffix(k, "_ns_per_op") || strings.HasSuffix(k, ".ns_per_op") || strings.HasSuffix(k, "_ns"):
			delta := 0.0
			if ov > 0 {
				delta = nv/ov - 1
			}
			status := "ok"
			switch {
			case !gateTiming:
				status = "skipped (num_cpu differs)"
			case nv > ov*(1+*tol):
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s: %+.1f%% ns/op", k, 100*delta))
			}
			fmt.Printf("  %-40s %12.0f -> %12.0f ns (%+.1f%%) %s\n", k, ov, nv, 100*delta, status)
		case strings.HasSuffix(k, "allocs_per_op"):
			status := "ok"
			if nv > ov {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s: %g -> %g allocs/op", k, ov, nv))
			}
			fmt.Printf("  %-40s %12g -> %12g allocs/op %s\n", k, ov, nv, status)
		case strings.HasSuffix(k, "rank_agreement"):
			// Quality gate, not a timing: the adaptive ranking must keep
			// reproducing the full-grid ranking. Any decrease fails,
			// machine-independently.
			status := "ok"
			if nv < ov {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s: %g -> %g", k, ov, nv))
			}
			fmt.Printf("  %-40s %12g -> %12g %s\n", k, ov, nv, status)
		}
	}
	newKeys := make([]string, 0)
	for k := range newSnap {
		if _, ok := oldSnap[k]; !ok {
			newKeys = append(newKeys, k)
		}
	}
	sort.Strings(newKeys)
	for _, k := range newKeys {
		fmt.Printf("  %-40s (new) %g\n", k, newSnap[k])
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d perf regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Println("no regressions")
	return nil
}

// loadFlatSnapshot reads a snapshot JSON and flattens every numeric
// field into path-keyed values ("table_ii_grid.0.ns_per_op"), so the
// diff handles nested sections and schema growth uniformly. The schema
// identifier is returned separately so the diff can note when the two
// snapshots come from different schema versions.
func loadFlatSnapshot(path string) (map[string]float64, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	schema := ""
	if obj, ok := raw.(map[string]any); ok {
		schema, _ = obj["schema"].(string)
	}
	out := make(map[string]float64)
	flattenNumeric("", raw, out)
	return out, schema, nil
}

// flattenNumeric walks parsed JSON, recording numeric leaves under
// dotted path keys. Writing into a map from a map range is
// order-independent, so the traversal needs no sorting.
func flattenNumeric(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, val := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenNumeric(key, val, out)
		}
	case []any:
		for i, val := range t {
			flattenNumeric(fmt.Sprintf("%s.%d", prefix, i), val, out)
		}
	case float64:
		out[prefix] = t
	}
}
