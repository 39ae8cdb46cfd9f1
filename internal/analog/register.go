package analog

import "repro/internal/dataset"

// The discipline registers its generators with the dataset registry at
// init; internal/core assembles the benchmark from the registry rather
// than hard-importing every discipline package.
func init() {
	dataset.RegisterGenerator(dataset.Generator{
		Name:     "analog",
		Category: dataset.Analog,
		Generate: Generate,
		ExtraAt:  ExtraAt,
	})
}
