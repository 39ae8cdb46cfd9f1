package phys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	if d := Manhattan(Pt{0, 0}, Pt{3, 4}); d != 7 {
		t.Errorf("Manhattan = %d", d)
	}
	if d := Manhattan(Pt{5, 5}, Pt{5, 5}); d != 0 {
		t.Errorf("Manhattan = %d", d)
	}
}

func TestRMSTKnown(t *testing.T) {
	// Three collinear points: MST length is the span.
	_, l := RMST([]Pt{{0, 0}, {5, 0}, {10, 0}})
	if l != 10 {
		t.Errorf("collinear RMST = %d, want 10", l)
	}
	// L-shape: (0,0), (4,0), (4,3) -> 4 + 3.
	_, l = RMST([]Pt{{0, 0}, {4, 0}, {4, 3}})
	if l != 7 {
		t.Errorf("L RMST = %d, want 7", l)
	}
	// Empty and single-point nets.
	if _, l := RMST(nil); l != 0 {
		t.Errorf("empty RMST = %d", l)
	}
	if edges, l := RMST([]Pt{{1, 1}}); l != 0 || len(edges) != 0 {
		t.Errorf("single-point RMST = %d edges %v", l, edges)
	}
}

func TestSteinerImprovesCross(t *testing.T) {
	// Four corners of a plus sign: RMST = 3 sides worth; a Steiner point
	// at the center saves wirelength.
	pts := []Pt{{2, 0}, {0, 2}, {4, 2}, {2, 4}}
	_, rmstLen := RMST(pts)
	_, _, steinerLen := SteinerTree(pts)
	if steinerLen > rmstLen {
		t.Errorf("steiner %d > rmst %d", steinerLen, rmstLen)
	}
	if steinerLen != 8 {
		t.Errorf("cross steiner length = %d, want 8 (two crossing spans)", steinerLen)
	}
}

func TestQuickSteinerNeverWorseThanRMST(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		pts := make([]Pt, n)
		seen := map[Pt]bool{}
		for i := range pts {
			for {
				p := Pt{r.Intn(10), r.Intn(10)}
				if !seen[p] {
					seen[p] = true
					pts[i] = p
					break
				}
			}
		}
		_, rmstLen := RMST(pts)
		_, _, steinerLen := SteinerTree(pts)
		return steinerLen <= rmstLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickHPWLLowerBound(t *testing.T) {
	// Property: HPWL never exceeds the RMST length (it is the classic
	// lower-bound estimator).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		pts := make([]Pt, n)
		for i := range pts {
			pts[i] = Pt{r.Intn(20), r.Intn(20)}
		}
		_, l := RMST(pts)
		return HPWL(pts) <= l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStarAndPathCosts(t *testing.T) {
	pts := []Pt{{0, 0}, {4, 0}, {0, 4}}
	if c := StarCost(pts, Pt{0, 0}); c != 8 {
		t.Errorf("star cost %d, want 8", c)
	}
}

func TestHPWLKnown(t *testing.T) {
	if w := HPWL([]Pt{{2, 3}, {9, 1}, {5, 8}, {11, 6}}); w != (11-2)+(8-1) {
		t.Errorf("HPWL = %d", w)
	}
	if w := HPWL(nil); w != 0 {
		t.Errorf("HPWL(nil) = %d", w)
	}
}

func TestFormatPts(t *testing.T) {
	if s := FormatPts([]Pt{{1, 2}, {3, 4}}); s != "(1,2) (3,4)" {
		t.Errorf("FormatPts = %q", s)
	}
}

func TestMazeRouteStraightLine(t *testing.T) {
	g := NewGrid(10, 10)
	l, err := g.RouteLength(Pt{1, 1}, Pt{7, 1})
	if err != nil {
		t.Fatal(err)
	}
	if l != 6 {
		t.Errorf("straight route %d, want 6", l)
	}
}

func TestQuickMazeEqualsManhattanWithoutObstacles(t *testing.T) {
	f := func(x0r, y0r, x1r, y1r uint8) bool {
		g := NewGrid(12, 12)
		a := Pt{int(x0r) % 12, int(y0r) % 12}
		b := Pt{int(x1r) % 12, int(y1r) % 12}
		l, err := g.RouteLength(a, b)
		return err == nil && l == Manhattan(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMazeDetour(t *testing.T) {
	g := NewGrid(10, 10)
	g.BlockRect(4, 0, 4, 8) // wall with a gap at y=9
	src, dst := Pt{2, 2}, Pt{7, 2}
	l, err := g.RouteLength(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if d := l - Manhattan(src, dst); d <= 0 {
		t.Errorf("detour %d, want positive", d)
	}
	path, err := g.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Path must avoid every blocked cell and be connected.
	for i, p := range path {
		if g.Blocked(p) {
			t.Errorf("path crosses blockage at %v", p)
		}
		if i > 0 && Manhattan(path[i-1], p) != 1 {
			t.Errorf("path not connected at %d: %v -> %v", i, path[i-1], p)
		}
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Error("path endpoints wrong")
	}
}

func TestMazeUnroutable(t *testing.T) {
	g := NewGrid(8, 8)
	g.BlockRect(3, 0, 3, 7) // full wall
	if _, err := g.Route(Pt{0, 0}, Pt{7, 7}); err == nil {
		t.Error("route through full wall should fail")
	}
	if _, err := g.Route(Pt{3, 3}, Pt{0, 0}); err == nil {
		t.Error("blocked source accepted")
	}
}
