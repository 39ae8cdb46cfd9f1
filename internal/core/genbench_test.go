package core

import "testing"

// genWindow is the index window the generation benchmark and the
// allocation budgets walk: 60 is a multiple of every discipline's
// template count (5 or 6), so each window weighs every template alike.
const genWindow = 60

// BenchmarkExtraAt times one extended question per op — ExtraAt plus
// Validate, the per-question work of StreamExtended's lookahead — per
// discipline, over the same fold stream_16x streams.
func BenchmarkExtraAt(b *testing.B) {
	gens, err := registeredGenerators()
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range gens {
		b.Run(g.Category.Short(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := g.ExtraAt("bench-0", i%genWindow).Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
