// Package runspec is the one definition of an evaluation run, shared
// by the CLI's run commands and `chipvqa serve`: the Spec, Env.Validate
// and the dispatcher Env.Run. What differs between the front ends lives
// in the Env each builds once, never in a spec field (DESIGN.md §14,
// "One run spec").
package runspec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
)

// Spec describes one run: the POST /v1/runs body (serve.RunSpec), and
// what the CLI's run commands map their flags onto. Validate resolves
// its defaults, so a validated spec fully determines the run.
type Spec struct {
	// Kind is "eval" (default: a named collection), "challenge" (eval
	// over the challenge collection), "extended" (a seeded extended
	// fold, shard by shard) or "adaptive" (an IRT tournament against an
	// item bank calibrated over a seeded extended fold).
	Kind string `json:"kind,omitempty"`
	// Collection names the question set for eval runs ("" = standard).
	Collection string `json:"collection,omitempty"`
	// Models lists zoo model names to evaluate; empty means all, and
	// report order follows this list.
	Models []string `json:"models,omitempty"`
	// Session is the tenant identity for scheduling; "" = "anonymous".
	Session string `json:"session,omitempty"`
	// Workers is the requested worker count in [0, 4096]. 0 asks serve
	// for the session share, which clamps any request, and the CLI for
	// GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Downsample degrades question images by this power-of-two factor
	// before models see them (1 = original).
	Downsample int `json:"downsample,omitempty"`
	// Seed and PerCategory name an extended or adaptive run's fold;
	// ShardSize, in [1, 4096], is an extended run's shard.
	Seed        string `json:"seed,omitempty"`
	PerCategory int    `json:"per_category,omitempty"`
	ShardSize   int    `json:"shard_size,omitempty"`
	// Stream, when "ndjson" or "sse", streams the run's events in the
	// POST response body itself; the run is then scoped to the request
	// context, so disconnecting cancels it (deterministic prefix).
	// Empty launches detached and returns 201 immediately.
	Stream string `json:"stream,omitempty"`
}

// Env is what a front end supplies to validate and run specs. Build it
// once with NewEnv, then set the fields below.
type Env struct {
	models []eval.Model
	names  []string

	// Collections are the question sets an eval spec may name.
	Collections map[string]*dataset.Benchmark
	// WireDefaults reads a zero downsample, per_category or shard_size
	// and an empty seed as 1, 10, 64 and "fold-a" (serve). The CLI's
	// flags carry their own defaults, so there a 0 is an error.
	WireDefaults bool
	// MaxPerCategory caps a fold; 0 means no ceiling (the CLI). serve
	// sets 2000, so one request cannot make it build an unbounded fold.
	MaxPerCategory int
	// Calibrate supplies an adaptive run's calibration: serve's per-fold
	// cache. nil calls the package's Calibrate under the run's context.
	Calibrate func(seed string, perCategory, workers int) (*adaptive.Calibration, error)
	// Tournament holds the CLI's -runseed and -budget; a negative
	// budget fails validation. nil breaks ties with the fold seed, so a
	// stored spec fully determines its transcript (serve).
	Tournament *adaptive.Config
	// Shards supplies an extended run's questions; nil generates the
	// spec's fold. The CLI sets it to count shards, read a pack or hand
	// over a fold it already built.
	Shards func(yield func(dataset.Shard) error) error
}

// NewEnv builds an environment whose specs may name the given models,
// which must have unique names. Their order is the default report
// order.
func NewEnv(models []eval.Model) (*Env, error) {
	e := &Env{models: append([]eval.Model(nil), models...)}
	for _, m := range models {
		if e.model(m.Name()) != nil {
			return nil, fmt.Errorf("duplicate model %q", m.Name())
		}
		e.names = append(e.names, m.Name())
	}
	return e, nil
}

// model returns the named model among those named so far, or nil.
func (e *Env) model(name string) eval.Model {
	for i, n := range e.names {
		if n == name {
			return e.models[i]
		}
	}
	return nil
}

// Models and ModelNames return the models and their names, in order.
// Callers must not modify either slice.
func (e *Env) Models() []eval.Model { return e.models }
func (e *Env) ModelNames() []string { return e.names }

// Validate checks spec and resolves its defaults in place. A rejected
// spec is the caller's error: serve answers 400 and the CLI exits 2.
// A bad workers, downsample, per_category or shard_size value is a
// *FieldError.
func (e *Env) Validate(spec *Spec) error {
	switch spec.Kind {
	case "", "eval":
		spec.Kind = "eval"
	case "challenge":
		if spec.Collection != "" && spec.Collection != "challenge" {
			return fmt.Errorf("kind challenge implies collection challenge, not %q", spec.Collection)
		}
		spec.Kind, spec.Collection = "eval", "challenge"
	case "extended", "adaptive":
		if spec.Collection != "" {
			return fmt.Errorf("%s runs generate their own fold; collection must be empty", spec.Kind)
		}
		if spec.Kind == "adaptive" && spec.ShardSize != 0 {
			return fmt.Errorf("adaptive runs pull one item at a time; shard_size must be empty")
		}
		if e.WireDefaults {
			if spec.Seed == "" {
				spec.Seed = "fold-a"
			}
			if spec.PerCategory == 0 {
				spec.PerCategory = 10
			}
			if spec.Kind == "extended" && spec.ShardSize == 0 {
				spec.ShardSize = 64
			}
		}
		if spec.PerCategory < 1 {
			return fieldErr("per_category", "must be >= 1, got %d", spec.PerCategory)
		}
		if e.MaxPerCategory > 0 && spec.PerCategory > e.MaxPerCategory {
			return fieldErr("per_category", "%d outside [1, %d]", spec.PerCategory, e.MaxPerCategory)
		}
		if spec.Kind == "extended" && (spec.ShardSize < 1 || spec.ShardSize > 4096) {
			return fieldErr("shard_size", "%d outside [1, 4096]", spec.ShardSize)
		}
		if spec.Kind == "adaptive" && e.Tournament != nil && e.Tournament.TotalBudget < 0 {
			return fmt.Errorf("budget must be >= 0, got %d", e.Tournament.TotalBudget)
		}
	default:
		return fmt.Errorf("unknown run kind %q", spec.Kind)
	}
	if spec.Kind == "eval" {
		if spec.Seed != "" || spec.PerCategory != 0 || spec.ShardSize != 0 {
			return fmt.Errorf("seed/per_category/shard_size only apply to extended runs")
		}
		if spec.Collection == "" {
			spec.Collection = "standard"
		}
		if _, ok := e.Collections[spec.Collection]; !ok {
			return fmt.Errorf("unknown collection %q", spec.Collection)
		}
	}
	if spec.Workers < 0 || spec.Workers > 4096 {
		return fieldErr("workers", "%d outside [0, 4096]", spec.Workers)
	}
	if e.WireDefaults && spec.Downsample == 0 {
		spec.Downsample = 1
	}
	if !visual.ValidFactor(spec.Downsample) {
		return fieldErr("downsample", "must be one of 1,2,4,8,16,32, got %d", spec.Downsample)
	}
	if len(spec.Models) == 0 {
		spec.Models = e.names
	}
	// A known-name list repeats within len(e.names)+1 entries, so this
	// scan is quadratic in the zoo, not in the request.
	for i, name := range spec.Models {
		if e.model(name) == nil {
			return fmt.Errorf("unknown model %q", name)
		}
		if slices.Contains(spec.Models[:i], name) {
			return fmt.Errorf("duplicate model %q", name)
		}
	}
	if spec.Session == "" {
		spec.Session = "anonymous"
	}
	if len(spec.Session) > 64 {
		return fmt.Errorf("session name longer than 64 bytes")
	}
	if strings.ContainsFunc(spec.Session, func(c rune) bool { return c < 0x20 || c == 0x7f }) {
		return fmt.Errorf("session name contains control characters")
	}
	if spec.Stream != "" && spec.Stream != "ndjson" && spec.Stream != "sse" {
		return fmt.Errorf("stream must be empty, \"ndjson\" or \"sse\", got %q", spec.Stream)
	}
	return nil
}

// FieldError rejects a spec for the value of one field: Field is its
// JSON name and Problem what is wrong with the value. serve reports
// it as is; the CLI names the flag that set the field instead.
type FieldError struct {
	Field   string
	Problem string
}

func (e *FieldError) Error() string { return e.Field + " " + e.Problem }

// fieldErr builds a FieldError.
func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Problem: fmt.Sprintf(format, args...)}
}

// Events is how many events a validated eval run delivers; 0 for the
// other kinds, whose size is not known up front.
func (e *Env) Events(spec Spec) int {
	if spec.Kind != "eval" {
		return 0
	}
	return len(spec.Models) * e.Collections[spec.Collection].Len()
}

// Run evaluates a validated spec on workers workers (eval.Runner's
// convention: 0 = GOMAXPROCS), obs seeing every event in canonical
// order. It returns one report per spec model, in spec order (on
// cancellation, the deterministic prefix), and for an adaptive run
// the tournament's result as well.
func (e *Env) Run(ctx context.Context, spec Spec, workers int, obs eval.Observer) ([]*eval.Report, *adaptive.Result, error) {
	runner := eval.Runner{Workers: workers, Opts: eval.InferenceOptions{DownsampleFactor: spec.Downsample}, Observer: obs}
	models := make([]eval.Model, len(spec.Models))
	for i, name := range spec.Models {
		models[i] = e.model(name)
	}
	switch spec.Kind {
	case "adaptive":
		var cal *adaptive.Calibration
		var err error
		if e.Calibrate != nil {
			cal, err = e.Calibrate(spec.Seed, spec.PerCategory, workers)
		} else {
			cal, err = Calibrate(ctx, e.models, spec.Seed, spec.PerCategory, workers)
		}
		if err != nil {
			return nil, nil, err
		}
		cfg := adaptive.Config{Seed: spec.Seed}
		if e.Tournament != nil {
			cfg = *e.Tournament
		}
		res, err := cal.Run(ctx, runner, models, cfg)
		if res == nil {
			return nil, nil, err
		}
		return res.Reports, res, err
	case "extended":
		shards := e.Shards
		if shards == nil {
			shards = func(yield func(dataset.Shard) error) error {
				return core.StreamExtended(spec.Seed, spec.PerCategory, spec.ShardSize, yield)
			}
		}
		reports := make([]*eval.Report, len(models))
		for i := range reports {
			reports[i] = &eval.Report{}
		}
		return reports, nil, runner.EvaluateShardsContext(ctx, models, shards, reports)
	}
	reports, err := runner.EvaluateAllContext(ctx, models, e.Collections[spec.Collection])
	return reports, nil, err
}

// Calibrate evaluates models over the extended fold (seed, perCategory)
// and calibrates an item bank from that grid. The grid is reference
// material, not part of any run's event stream: it runs unobserved, at
// full resolution.
func Calibrate(ctx context.Context, models []eval.Model, seed string, perCategory, workers int) (*adaptive.Calibration, error) {
	fold, err := core.BuildExtended(seed, perCategory)
	if err != nil {
		return nil, err
	}
	return adaptive.NewCalibration(ctx, eval.Runner{Workers: workers}, models, fold)
}
