// Package core assembles the ChipVQA benchmark — the paper's primary
// contribution — from the five discipline question generators, and
// verifies that the assembled collection matches the composition the
// paper reports in Table I (142 questions; 99 multiple choice and 43
// short answer; the category and visual-type histograms).
package core

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/visual"

	// The discipline packages are imported for effect only: each
	// registers its generators with the dataset registry at init, and
	// assembly below walks the registry instead of calling the packages
	// directly. Dropping one import here (or adding a new discipline's)
	// is the whole wiring change.
	_ "repro/internal/analog"
	_ "repro/internal/arch"
	_ "repro/internal/digital"
	_ "repro/internal/manuf"
	_ "repro/internal/phys"
)

// TableITargets is the composition Table I of the paper specifies.
// The visual-type histogram is partially garbled in the available paper
// text (several counts are unreadable); the unreadable tail entries are
// reconstructed so that the published majority ordering holds
// (schematic 53 > diagram 29 > layout 16) and the total is exactly 142.
type TableITargets struct {
	Total, MC, SA int
	PerCategory   map[dataset.Category]int
	PerVisual     map[visual.Kind]int
}

// Targets returns the Table I composition this reproduction builds.
func Targets() TableITargets {
	return TableITargets{
		Total: 142, MC: 99, SA: 43,
		PerCategory: map[dataset.Category]int{
			dataset.Digital:      35,
			dataset.Analog:       44,
			dataset.Architecture: 20,
			dataset.Manufacture:  20,
			dataset.Physical:     23,
		},
		PerVisual: map[visual.Kind]int{
			visual.KindSchematic:  53,
			visual.KindDiagram:    29,
			visual.KindLayout:     16,
			visual.KindTable:      9,
			visual.KindMixed:      8,
			visual.KindStructure:  6,
			visual.KindFigure:     6,
			visual.KindCurve:      5,
			visual.KindFlow:       4,
			visual.KindEquations:  3,
			visual.KindNeuralNets: 2,
			visual.KindEquation:   1,
		},
	}
}

// registeredGenerators fetches the registry in canonical category
// order and verifies it is complete: one generator per discipline. A
// hole means a discipline package's registration import is missing —
// an assembly-wiring bug, reported as an error rather than a short
// benchmark that would only fail composition checks later.
func registeredGenerators() ([]dataset.Generator, error) {
	gens := dataset.Generators()
	if len(gens) != dataset.NumCategories {
		return nil, fmt.Errorf("core: %d of %d disciplines registered (missing registration import?)",
			len(gens), dataset.NumCategories)
	}
	for i, c := range dataset.Categories() {
		if gens[i].Category != c {
			return nil, fmt.Errorf("core: no generator registered for category %s", c)
		}
	}
	return gens, nil
}

// generateConcurrent runs one job per registered generator concurrently
// and merges the outputs in the registry's canonical category order
// (digital, analog, arch, manuf, phys), so the assembled question
// sequence is identical to a serial build. The generators share no
// mutable state — every stochastic parameter draws from a keyed rng
// stream — which makes the fan-out safe.
func generateConcurrent(gens []dataset.Generator, run func(dataset.Generator) []*dataset.Question) []*dataset.Question {
	parts := make([][]*dataset.Question, len(gens))
	var wg sync.WaitGroup
	wg.Add(len(gens))
	for i, g := range gens {
		go func(i int, g dataset.Generator) {
			defer wg.Done()
			parts[i] = run(g)
		}(i, g)
	}
	wg.Wait()
	var out []*dataset.Question
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// BuildBenchmark generates the full 142-question ChipVQA collection
// from the discipline registry and verifies it against the Table I
// targets. The discipline engines run concurrently; the merge order is
// deterministic.
func BuildBenchmark() (*dataset.Benchmark, error) {
	gens, err := registeredGenerators()
	if err != nil {
		return nil, err
	}
	b := &dataset.Benchmark{Name: "ChipVQA"}
	b.Questions = generateConcurrent(gens, func(g dataset.Generator) []*dataset.Question {
		return g.Generate()
	})
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := CheckComposition(b); err != nil {
		return nil, err
	}
	for i, q := range b.Questions {
		q.Ord = int32(i + 1)
	}
	return b, nil
}

// MustBuild builds the benchmark or panics; a test fixture.
//
//lint:ignore unreachable called only by core's and vlm's tests (TestBenchmarkDeterministic, TestFineTuneImprovesWeakModel)
func MustBuild() *dataset.Benchmark {
	b, err := BuildBenchmark()
	if err != nil {
		panic(err)
	}
	return b
}

// CheckComposition verifies the benchmark against the Table I targets.
func CheckComposition(b *dataset.Benchmark) error {
	t := Targets()
	s := b.ComputeStats()
	if s.Total != t.Total {
		return fmt.Errorf("core: %d questions, want %d", s.Total, t.Total)
	}
	if s.MC != t.MC || s.SA != t.SA {
		return fmt.Errorf("core: MC/SA split %d/%d, want %d/%d", s.MC, s.SA, t.MC, t.SA)
	}
	for c, want := range t.PerCategory {
		if got := s.PerCategory[c]; got != want {
			return fmt.Errorf("core: category %s has %d questions, want %d", c, got, want)
		}
	}
	for k, want := range t.PerVisual {
		if got := s.PerVisual[k]; got != want {
			return fmt.Errorf("core: visual type %s has %d questions, want %d", k, got, want)
		}
	}
	return nil
}
