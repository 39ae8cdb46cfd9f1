package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// packFold10k generates a 10k-question fold and streams it through the
// pack encoder.
func packFold10k(b *testing.B) []byte {
	var buf bytes.Buffer
	pw := dataset.NewPackWriter(&buf, "bench")
	if err := StreamExtended("bench", 2000, 512, pw.WriteShard); err != nil {
		b.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkWritePack10k and BenchmarkReadPack10k time the two sides of
// the cold-load speedup that TestPackColdLoadFasterThanRegeneration
// gates at 7x: generating and encoding a fold, and decoding its bytes.
func BenchmarkWritePack10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packFold10k(b)
	}
}

func BenchmarkReadPack10k(b *testing.B) {
	raw := packFold10k(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadPack(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
