package visual_test

// Differential and golden tests over the REAL benchmark scenes: every
// question of every discipline generator is rendered with both the span
// kernel and the retained naive reference (reference_test.go), and the
// Pix buffers must match byte-for-byte at full resolution and at every
// ablation downsample factor. This is what carries the SceneCache
// determinism guarantee (DESIGN.md §7) across the kernel rewrite: if
// the kernels agree on every scene, cached artifacts are unchanged.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/visual"
)

func TestKernelDifferentialAllDisciplines(t *testing.T) {
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	factors := []int{1, 2, 8, 16}
	perCategory := map[dataset.Category]int{}
	for _, q := range b.Questions {
		perCategory[q.Category]++
		img := visual.Render(q.Visual)
		ref := visual.RenderReference(q.Visual)
		if ok, off := visual.PixEqual(img, ref); !ok {
			t.Fatalf("%s (%s): full-resolution render diverged at offset %d", q.ID, q.Category, off)
		}
		for _, f := range factors {
			got := visual.Downsample(img, f)
			want := visual.DownsampleReference(ref, f)
			if ok, off := visual.PixEqual(got, want); !ok {
				t.Fatalf("%s (%s): downsample %dx diverged at offset %d", q.ID, q.Category, f, off)
			}
		}
	}
	if len(perCategory) != 5 {
		t.Fatalf("differential sweep covered %d disciplines, want 5", len(perCategory))
	}
}

// Golden SHA-256 hashes of the rendered Pix of the first question of
// each discipline. Any future kernel change that shifts even one pixel
// of one scene fails here loudly; regenerate the constants only after a
// deliberate, reviewed change to rendering semantics (and re-run the
// differential tests above against an updated reference).
var goldenRenderHashes = map[string]string{
	"Digital Design":  "f5a4f8282a6e8e0a09dba131de93f2129a3fb5c44c700026a72db751266ad01d", // question d01
	"Analog Design":   "0e9b43883b09385dbe05b42be9c4c8a044655300c34a1cfec097658fc51dce28", // question a01
	"Architecture":    "42146ee7fe243d5fea457ca612b6e3175e0946a0c84178a5a6bdabff4a7136d0", // question ar01
	"Manufacture":     "4e1169aa9fda5865069a2e879d95895427e4a58e002a1c19c0b979e140518239", // question m01
	"Physical Design": "46c4993cefebdc94ecf204a25103431dabeefced83c2de80c6b2e3a65d258d6e", // question p01
}

func TestGoldenRenderHashes(t *testing.T) {
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range b.Questions {
		cat := q.Category.String()
		if seen[cat] {
			continue
		}
		seen[cat] = true
		img := visual.Render(q.Visual)
		sum := sha256.Sum256(img.Pix)
		got := hex.EncodeToString(sum[:])
		want, ok := goldenRenderHashes[cat]
		if !ok {
			t.Errorf("no golden hash recorded for category %q (question %s): got %s", cat, q.ID, got)
			continue
		}
		if got != want {
			t.Errorf("category %q (question %s, %dx%d): render hash drifted\n got %s\nwant %s",
				cat, q.ID, img.Bounds().Dx(), img.Bounds().Dy(), got, want)
		}
	}
	if len(seen) != len(goldenRenderHashes) {
		t.Errorf("saw %d categories, golden table has %d", len(seen), len(goldenRenderHashes))
	}
}

// TestGoldenHashesPrint regenerates the golden table when run with
// -run TestGoldenHashesPrint -v; it never fails.
func TestGoldenHashesPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range b.Questions {
		cat := q.Category.String()
		if seen[cat] {
			continue
		}
		seen[cat] = true
		img := visual.Render(q.Visual)
		sum := sha256.Sum256(img.Pix)
		t.Logf("%q: %q, // %s", cat, hex.EncodeToString(sum[:]), fmt.Sprintf("question %s", q.ID))
	}
}
