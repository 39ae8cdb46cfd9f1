package visual

import (
	"image"
	"testing"
)

func TestDetailRetentionOrdering(t *testing.T) {
	// On a rendered scene with text annotations, retention must fall
	// monotonically with the downsampling factor — the pixel-level
	// ground truth behind LegibilityLoss.
	s := sampleScene(KindSchematic)
	for i := 0; i < 6; i++ {
		s.Add(Element{Type: ElemValue, Name: nameN("v", i),
			Label: "R=2.2k C=100n gm=4m", X: 60, Y: float64(330 + 18*i)})
	}
	img := Render(s)
	r1 := DetailRetention(img, Downsample(img, 1))
	r8 := DetailRetention(img, Downsample(img, 8))
	r16 := DetailRetention(img, Downsample(img, 16))
	if r1 < 0.99 {
		t.Errorf("retention at 1x = %v, want ~1", r1)
	}
	if !(r8 > r16) {
		t.Errorf("retention should fall with factor: 8x %v vs 16x %v", r8, r16)
	}
	if r16 > 0.95 {
		t.Errorf("16x retention %v suspiciously high for a text-heavy figure", r16)
	}
}

func nameN(p string, i int) string { return p + string(rune('0'+i)) }

func TestDetailRetentionAgreesWithLegibilityLoss(t *testing.T) {
	// The analytic model and the pixel measurement must agree in
	// ordering: higher modelled loss at 16x than at 8x corresponds to
	// lower measured retention at 16x than at 8x.
	s := sampleScene(KindSchematic)
	img := Render(s)
	measured8 := DetailRetention(img, Downsample(img, 8))
	measured16 := DetailRetention(img, Downsample(img, 16))
	modelled8 := LegibilityLoss(8, 0.65)
	modelled16 := LegibilityLoss(16, 0.65)
	if (modelled16 > modelled8) != (measured16 < measured8) {
		t.Errorf("model and measurement disagree: loss %v->%v, retention %v->%v",
			modelled8, modelled16, measured8, measured16)
	}
}

func TestDetailRetentionBlank(t *testing.T) {
	blank := NewCanvas(64, 64).Image()
	if r := DetailRetention(blank, Downsample(blank, 8)); r != 1 {
		t.Errorf("blank image retention %v, want 1 (nothing to lose)", r)
	}
}

// DetailRetention measures, on real pixels, how much fine detail an
// image keeps after degradation: the ratio of total edge energy in the
// degraded image (per original-resolution area) to the original's. A
// value of 1 means no visible loss; small annotations blurring away pull
// it toward 0. This grounds the perception model: LegibilityLoss is the
// analytic stand-in the simulated VLMs use, and the package tests verify
// the two agree in ordering on rendered benchmark figures.
func DetailRetention(orig, degraded *image.RGBA) float64 {
	eo := edgeEnergy(orig)
	if eo == 0 {
		return 1
	}
	// Scale the degraded image's energy to the original's pixel count so
	// the comparison is per unit of original area.
	ob := orig.Bounds()
	db := degraded.Bounds()
	if db.Dx() == 0 || db.Dy() == 0 {
		return 0
	}
	scale := float64(ob.Dx()*ob.Dy()) / float64(db.Dx()*db.Dy())
	// Edge energy scales with linear resolution, not area: a feature
	// spanning k pixels contributes gradient along its boundary length.
	linear := float64(ob.Dx()) / float64(db.Dx())
	ed := edgeEnergy(degraded) * scale / linear
	r := ed / eo
	if r > 1 {
		return 1
	}
	return r
}

// edgeEnergy sums absolute horizontal and vertical luminance gradients.
func edgeEnergy(img *image.RGBA) float64 {
	b := img.Bounds()
	lum := func(x, y int) float64 {
		i := img.PixOffset(x, y)
		return 0.299*float64(img.Pix[i]) + 0.587*float64(img.Pix[i+1]) + 0.114*float64(img.Pix[i+2])
	}
	var e float64
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			l := lum(x, y)
			if x+1 < b.Max.X {
				d := lum(x+1, y) - l
				if d < 0 {
					d = -d
				}
				e += d
			}
			if y+1 < b.Max.Y {
				d := lum(x, y+1) - l
				if d < 0 {
					d = -d
				}
				e += d
			}
		}
	}
	return e
}
