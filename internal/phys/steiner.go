// Package phys implements the physical-design substrate: rectilinear
// spanning/Steiner tree construction, grid maze routing, H-tree clock
// distribution with skew analysis, DAG static timing analysis, row-based
// placement legalisation and slicing-tree floorplanning. The Physical
// Design questions of the benchmark are generated from these engines.
package phys

import (
	"sort"
	"strconv"
)

// Pt is an integer grid point (routing terminals, cell corners).
type Pt struct {
	X, Y int
}

// Manhattan returns the rectilinear distance between two points.
func Manhattan(a, b Pt) int {
	return absInt(a.X-b.X) + absInt(a.Y-b.Y)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Edge connects two point indices with a weight.
type Edge struct {
	A, B int
	W    int
}

// RMST computes the rectilinear minimum spanning tree over the terminals
// with Prim's algorithm and returns its edges and total wirelength.
func RMST(pts []Pt) ([]Edge, int) {
	n := len(pts)
	if n == 0 {
		return nil, 0
	}
	inTree := make([]bool, n)
	dist := make([]int, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = 1 << 30
		parent[i] = -1
	}
	dist[0] = 0
	var edges []Edge
	total := 0
	for iter := 0; iter < n; iter++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		if parent[best] >= 0 {
			edges = append(edges, Edge{A: parent[best], B: best, W: dist[best]})
			total += dist[best]
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := Manhattan(pts[best], pts[i]); d < dist[i] {
					dist[i] = d
					parent[i] = best
				}
			}
		}
	}
	return edges, total
}

// SteinerTree improves an RMST by iteratively inserting Hanan-grid
// points that reduce total wirelength (a 1-Steiner heuristic). It
// returns the augmented point list (terminals first), tree edges and the
// total length.
func SteinerTree(terminals []Pt) ([]Pt, []Edge, int) {
	pts := append([]Pt{}, terminals...)
	_, best := RMST(pts)
	improved := true
	for improved {
		improved = false
		hanan := hananPoints(pts)
		var bestCand Pt
		bestLen := best
		for _, h := range hanan {
			if containsPt(pts, h) {
				continue
			}
			trial := append(append([]Pt{}, pts...), h)
			_, l := RMST(trial)
			// Degree check is implicit: a useless Steiner point adds a
			// zero-gain leaf, never reducing length.
			if l < bestLen {
				bestLen = l
				bestCand = h
				improved = true
			}
		}
		if improved {
			pts = append(pts, bestCand)
			best = bestLen
		}
	}
	edges, total := RMST(pts)
	// Prune Steiner leaves (degree-1 non-terminals add length only when
	// the heuristic stalls; defensive cleanup).
	edges, total = pruneSteinerLeaves(pts, edges, len(terminals), total)
	return pts, edges, total
}

func pruneSteinerLeaves(pts []Pt, edges []Edge, numTerminals, total int) ([]Edge, int) {
	for {
		deg := make([]int, len(pts))
		for _, e := range edges {
			deg[e.A]++
			deg[e.B]++
		}
		removed := false
		var kept []Edge
		drop := -1
		for i := numTerminals; i < len(pts); i++ {
			if deg[i] == 1 {
				drop = i
				break
			}
		}
		if drop < 0 {
			return edges, total
		}
		for _, e := range edges {
			if e.A == drop || e.B == drop {
				total -= e.W
				removed = true
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
		if !removed {
			return edges, total
		}
	}
}

func hananPoints(pts []Pt) []Pt {
	xs := make(map[int]bool)
	ys := make(map[int]bool)
	for _, p := range pts {
		xs[p.X] = true
		ys[p.Y] = true
	}
	var out []Pt
	for x := range xs {
		for y := range ys {
			out = append(out, Pt{x, y})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

func containsPt(pts []Pt, p Pt) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}

// HPWL returns the half-perimeter wirelength bound of a net's terminals,
// the estimator placement questions use.
func HPWL(pts []Pt) int {
	if len(pts) == 0 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// StarCost returns the total length of a star topology routing every
// terminal to the given trunk point.
func StarCost(pts []Pt, hub Pt) int {
	total := 0
	for _, p := range pts {
		total += Manhattan(hub, p)
	}
	return total
}

// FormatPts renders coordinates like "(2,3) (5,1)".
func FormatPts(pts []Pt) string {
	var buf [64]byte
	b := buf[:0]
	for i, p := range pts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendPt(b, p)
	}
	return string(b)
}

// appendPt appends p as "(x,y)".
func appendPt(dst []byte, p Pt) []byte {
	dst = strconv.AppendInt(append(dst, '('), int64(p.X), 10)
	dst = strconv.AppendInt(append(dst, ','), int64(p.Y), 10)
	return append(dst, ')')
}
