package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPackDigestsPinned pins the SHA-256 of the CVQB pack encoding of
// fixed collections, so any change to a generated question — ID,
// prompt, choice order, golden, scene element, label or attribute —
// fails here even when the fold stays internally consistent. The
// extended sizes cover every template of every discipline at least
// twice, the zero-padded one-digit IDs and the unpadded two- and
// three-digit ones.
func TestPackDigestsPinned(t *testing.T) {
	cases := []struct {
		name, seed string
		size       int
		want       string
	}{
		{"extended/pin-a/12", "pin-a", 12, "2c5849e8b81929a20d936c33d3f595951350a779b5ebc24bfb2519a27504ca35"},
		{"extended/pin-a/101", "pin-a", 101, "22fb3b3d5620b8dab38e5b40d877ef05c80f98b2a7a7c53527fb59562f6f8e38"},
		{"extended/pin-b/12", "pin-b", 12, "2a0a3f459353c4b91eae57e8ad8d9958492b0a9b568edad3c6674044aa1ac3c0"},
		{"extended/pin-b/101", "pin-b", 101, "5e33a0ec2df6e2071eff93fb82845bf8f27ac84d044e0be37d75156798ec90b4"},
		{"standard", "", 0, "211cddc63d1ea37d8aac45499d20fe527a4456c8cfe7f6005bd2972dccba186a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build, err := BuildExtended(c.seed, c.size)
			if c.size == 0 {
				build, err = BuildBenchmark()
			}
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(packBytes(t, build))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("pack digest = %s, want %s", got, c.want)
			}
		})
	}
}
