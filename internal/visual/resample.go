package visual

import (
	"image"
	"math/bits"
)

// Downsample reduces an image by an integer factor with box filtering.
// It is the resolution-degradation operator of the paper's §IV-B study:
// the original images are "down-sampled 8x and 16x respectively".
//
// The kernel is a separable two-pass sum over raw Pix rows: each source
// row is first reduced to per-output-column channel sums, the sums of a
// row group are then accumulated and divided once. Summation over a
// rectangular block is order-free integer arithmetic and the division
// happens exactly once per output pixel, so the result is byte-identical
// to the naive per-pixel-block implementation (asserted by the
// differential tests in reference_test.go). The interior — output pixels
// whose factor x factor block lies fully inside the source — runs with
// fixed-length branch-free inner loops; only the right and bottom edge
// strips (non-divisible sizes) take the clamped path. Powers of two (the
// only factors the ablation uses: 8, 16) divide by shift.
func Downsample(src *image.RGBA, factor int) *image.RGBA {
	b := src.Bounds()
	if factor <= 1 {
		// Copy row-by-row: a sub-image view's Stride exceeds 4*Dx(), so
		// the old whole-buffer copy sheared its rows.
		out := image.NewRGBA(b)
		w4 := 4 * b.Dx()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			si := src.PixOffset(b.Min.X, y)
			di := out.PixOffset(b.Min.X, y)
			copy(out.Pix[di:di+w4], src.Pix[si:si+w4])
		}
		return out
	}
	srcW, srcH := b.Dx(), b.Dy()
	w := (srcW + factor - 1) / factor
	h := (srcH + factor - 1) / factor
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	if srcW == 0 || srcH == 0 {
		// Degenerate empty source: a zeroed 1x1, matching the reference's
		// n==0 guard.
		return dst
	}

	wFull := srcW / factor       // output columns with a full-width block
	tailW := srcW - wFull*factor // width of the right edge strip (0 if divisible)
	shift := uint(0)
	pow2 := factor&(factor-1) == 0
	if pow2 {
		shift = uint(2 * bits.TrailingZeros(uint(factor)))
	}

	acc := make([]uint32, 4*w)
	for oy := 0; oy < h; oy++ {
		ny := factor
		if rem := srcH - oy*factor; rem < ny {
			ny = rem
		}
		for i := range acc {
			acc[i] = 0
		}
		// Pass 1: collapse each source row of the group into per-output-
		// column channel sums, accumulating into acc.
		for dy := 0; dy < ny; dy++ {
			si := src.PixOffset(b.Min.X, b.Min.Y+oy*factor+dy)
			row := src.Pix[si : si+4*srcW]
			i, ai := 0, 0
			for ox := 0; ox < wFull; ox++ {
				var r, g, bl, a uint32
				for dx := 0; dx < factor; dx++ {
					r += uint32(row[i])
					g += uint32(row[i+1])
					bl += uint32(row[i+2])
					a += uint32(row[i+3])
					i += 4
				}
				acc[ai] += r
				acc[ai+1] += g
				acc[ai+2] += bl
				acc[ai+3] += a
				ai += 4
			}
			if tailW > 0 {
				var r, g, bl, a uint32
				for dx := 0; dx < tailW; dx++ {
					r += uint32(row[i])
					g += uint32(row[i+1])
					bl += uint32(row[i+2])
					a += uint32(row[i+3])
					i += 4
				}
				acc[ai] += r
				acc[ai+1] += g
				acc[ai+2] += bl
				acc[ai+3] += a
			}
		}
		// Pass 2: one division (or shift) per output pixel.
		di := dst.PixOffset(0, oy)
		orow := dst.Pix[di : di+4*w]
		if pow2 && ny == factor {
			for j := 0; j < 4*wFull; j++ {
				orow[j] = uint8(acc[j] >> shift)
			}
		} else {
			n := uint32(factor * ny)
			for j := 0; j < 4*wFull; j++ {
				orow[j] = uint8(acc[j] / n)
			}
		}
		if tailW > 0 {
			n := uint32(tailW * ny)
			for j := 4 * wFull; j < 4*w; j++ {
				orow[j] = uint8(acc[j] / n)
			}
		}
	}
	return dst
}

// ValidFactor reports whether f is a downsample factor the CLI and the
// serve daemon accept: a power of two from 1 to 32, so the kernel
// divides by shift.
func ValidFactor(f int) bool {
	switch f {
	case 1, 2, 4, 8, 16, 32:
		return true
	}
	return false
}

// LegibilityLoss estimates, for a downsampling factor, the fraction of
// fine detail that becomes unreadable for an element of the given
// salience. It is calibrated so that 8x downsampling of a 640x480 figure
// is essentially harmless while 16x wipes out small annotations — the
// behaviour §IV-B measured on the Digital category (0.49 → 0.49 → 0.37).
//
// The model: a glyph drawn at scale 1 is 5x7 logical pixels. After
// downsampling by f it occupies 5/f x 7/f device pixels; readability
// collapses once a glyph drops below about half a pixel of stroke width.
// Salience acts as a proxy for drawn size (labels and values are small,
// gates and boxes are big).
func LegibilityLoss(factor int, salience float64) float64 {
	if factor <= 1 {
		return 0
	}
	// Effective stroke size in device pixels for an element whose drawn
	// size scales with salience: prominent elements span ~100px, small
	// annotations ~7px.
	size := 7 + 93*salience
	device := size / float64(factor)
	switch {
	case device >= 6:
		return 0
	case device <= 1:
		return 0.95
	default:
		// Linear ramp between fully legible (6px) and unreadable (1px).
		return 0.95 * (6 - device) / 5
	}
}
