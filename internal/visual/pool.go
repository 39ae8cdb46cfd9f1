package visual

import (
	"image"
	"sync"
)

// The pixel-buffer pool. Render and Downsample each allocate a fresh
// *image.RGBA; on a 640x480 canvas that is 1.2MB of garbage per call,
// and paths that render per request (the scene cache's misses, cmd
// render, the bench harness) pay it per scene. The pool recycles those
// buffers by exact byte length.
//
// Lifecycle contract:
//   - newRGBA returns a buffer whose contents are UNDEFINED (stale
//     pixels from a prior life). Every consumer overwrites all of it:
//     NewCanvas re-whitens via Fill, Downsample writes every output
//     pixel.
//   - Every image this package returns is caller-owned; nothing hands
//     out a shared image. The owner may call ReleaseImage once, after
//     its last use of the image.
//   - Releasing is always optional; an unreleased image is ordinary
//     garbage, exactly as before the pool existed.
var pixPools sync.Map // buffer length in bytes -> *sync.Pool of []uint8

// newRGBA returns an RGBA image with the given bounds, reusing a pooled
// pixel buffer when one of the exact size is free. Contents are
// undefined; the caller must overwrite every byte.
func newRGBA(r image.Rectangle) *image.RGBA {
	n := 4 * r.Dx() * r.Dy()
	if p, ok := pixPools.Load(n); ok {
		if buf, _ := p.(*sync.Pool).Get().([]uint8); buf != nil {
			return &image.RGBA{Pix: buf, Stride: 4 * r.Dx(), Rect: r}
		}
	}
	return image.NewRGBA(r)
}

// ReleaseImage returns an image's pixel buffer to the pool and nils the
// image's Pix so accidental reuse fails loudly. Sub-image views (whose
// stride does not match their width) are ignored: their buffer belongs
// to the parent image.
func ReleaseImage(img *image.RGBA) {
	if img == nil || len(img.Pix) == 0 || img.Stride != 4*img.Rect.Dx() {
		return
	}
	n := len(img.Pix)
	p, _ := pixPools.LoadOrStore(n, &sync.Pool{})
	p.(*sync.Pool).Put(img.Pix[:n:n])
	img.Pix = nil
}

// accPool recycles the per-row accumulator Downsample uses, so the warm
// downsample path allocates only its output image.
var accPool sync.Pool

func getAcc(n int) []uint32 {
	if s, _ := accPool.Get().([]uint32); cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

func putAcc(s []uint32) { accPool.Put(s) }
