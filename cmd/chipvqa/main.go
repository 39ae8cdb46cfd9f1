// Command chipvqa regenerates every table and figure of the ChipVQA
// paper from the reproduction, and runs the extensions built on it:
//
//	chipvqa stats              Table I benchmark statistics
//	chipvqa stats -coverage    Fig. 1/3 discipline x visual coverage
//	chipvqa eval               Table II, standard collection
//	chipvqa eval -gap          per-model MC vs SA gap (§IV-A RAG effect)
//	chipvqa challenge          Table II, challenge collection
//	chipvqa agent              Table III agent study
//	chipvqa resolution         §IV-B image resolution study
//	chipvqa export -o FILE     benchmark as JSON
//	chipvqa render -dir DIR    rasterise every question to PNG
//	chipvqa ask -model M -q ID one model on one question (with transcript)
//	chipvqa extended -n N      generated extended collection (-eval, -stream, -packed FILE)
//	chipvqa pack -o FILE       extended fold in the compact binary format
//	chipvqa compare -a A -b B  paired McNemar test + bootstrap CIs
//	chipvqa finetune -model M  domain-adaptation learning curve
//	chipvqa items              per-question difficulty and discrimination
//	chipvqa adaptive           IRT adaptive evaluation over an extended fold
//	chipvqa serve              eval-as-a-service HTTP daemon
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

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
// 1 runtime failure, 2 usage error.
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
		path := filepath.Join(*dir, fmt.Sprintf("%s.png", q.ID))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		img := chipvqa.RenderQuestion(q, *factor)
		err = png.Encode(f, img)
		visual.ReleaseImage(img)
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
	if *stream && (*out != "" || !*evalModels) {
		return usagef("-stream requires -eval and is incompatible with -o (the fold is never materialised)")
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
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
// schema is versioned, items are sorted by
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
