// Corpus for the poolown analyzer: violations of the pixel-pool
// ownership contract documented in internal/visual/pool.go, next to the
// legitimate lifecycles that must stay clean.
package poolowntest

import (
	"image"

	chipvqa "repro"
	"repro/internal/visual"
)

func doubleRelease(s *visual.Scene) {
	img := visual.Render(s)
	visual.ReleaseImage(img)
	visual.ReleaseImage(img) // want `double release of img on this path`
}

func doubleReleaseAfterJoin(s *visual.Scene, cond bool) {
	img := visual.Render(s)
	if cond {
		visual.ReleaseImage(img)
	} else {
		visual.ReleaseImage(img)
	}
	visual.ReleaseImage(img) // want `double release of img on this path`
}

func doubleReleaseRenderQuestion(q *chipvqa.Question) {
	img := chipvqa.RenderQuestion(q, 8)
	visual.ReleaseImage(img)
	visual.ReleaseImage(img) // want `double release of img on this path`
}

func releasesReleasedAlias(s *visual.Scene) {
	img := visual.Render(s)
	visual.ReleaseImage(img)
	view := img
	visual.ReleaseImage(view) // want `double release of view on this path`
}

func returnsReleased(s *visual.Scene) *image.RGBA {
	img := visual.Render(s)
	visual.ReleaseImage(img)
	return img // want `img escapes via return after ReleaseImage`
}

type frameHolder struct{ frame *image.RGBA }

func storesReleased(s *visual.Scene, h *frameHolder) {
	img := visual.Render(s)
	visual.ReleaseImage(img)
	h.frame = img // want `img escapes via field store h\.frame after ReleaseImage`
}

// legitimateLifecycle exercises every legal pattern: releasing owned
// render/downsample results exactly once, reassignment clearing the
// released state, and a single-branch release.
func legitimateLifecycle(s *visual.Scene, cond bool) *image.RGBA {
	img := visual.Render(s)
	small := visual.Downsample(img, 8)
	visual.ReleaseImage(img)
	img = small
	if cond {
		visual.ReleaseImage(img)
		return nil
	}
	return img
}

func suppressedRelease(s *visual.Scene) {
	img := visual.Render(s)
	visual.ReleaseImage(img)
	//lint:ignore poolown corpus case demonstrating an explained suppression
	visual.ReleaseImage(img)
}
