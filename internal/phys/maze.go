package phys

import "fmt"

// Grid is a routing grid with blocked cells.
type Grid struct {
	W, H    int
	blocked map[Pt]bool
}

// NewGrid returns an empty routing grid.
func NewGrid(w, h int) *Grid {
	return &Grid{W: w, H: h, blocked: make(map[Pt]bool)}
}

// Block marks a cell as an obstacle.
func (g *Grid) Block(p Pt) { g.blocked[p] = true }

// BlockRect blocks every cell in [x0,x1] x [y0,y1].
func (g *Grid) BlockRect(x0, y0, x1, y1 int) {
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.Block(Pt{x, y})
		}
	}
}

// Blocked reports whether a cell is an obstacle or off-grid.
func (g *Grid) Blocked(p Pt) bool {
	if p.X < 0 || p.Y < 0 || p.X >= g.W || p.Y >= g.H {
		return true
	}
	return g.blocked[p]
}

// Route runs Lee's wave-propagation maze router from src to dst and
// returns the shortest path (inclusive of endpoints) or an error when no
// route exists. Ties resolve in the fixed neighbour order E, W, N, S so
// results are deterministic.
func (g *Grid) Route(src, dst Pt) ([]Pt, error) {
	if g.Blocked(src) || g.Blocked(dst) {
		return nil, fmt.Errorf("phys: terminal %v or %v blocked", src, dst)
	}
	dist := map[Pt]int{src: 0}
	frontier := []Pt{src}
	dirs := []Pt{{1, 0}, {-1, 0}, {0, -1}, {0, 1}}
	for len(frontier) > 0 && dist[dst] == 0 && dst != src {
		var next []Pt
		for _, p := range frontier {
			for _, d := range dirs {
				q := Pt{p.X + d.X, p.Y + d.Y}
				if g.Blocked(q) {
					continue
				}
				if _, seen := dist[q]; seen {
					continue
				}
				dist[q] = dist[p] + 1
				next = append(next, q)
			}
		}
		frontier = next
	}
	if _, ok := dist[dst]; !ok {
		return nil, fmt.Errorf("phys: no route from %v to %v", src, dst)
	}
	// Backtrace.
	path := []Pt{dst}
	cur := dst
	for cur != src {
		for _, d := range dirs {
			q := Pt{cur.X + d.X, cur.Y + d.Y}
			if dq, ok := dist[q]; ok && dq == dist[cur]-1 {
				cur = q
				path = append(path, q)
				break
			}
		}
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// RouteLength returns the wirelength (edge count) of the shortest route.
func (g *Grid) RouteLength(src, dst Pt) (int, error) {
	p, err := g.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}
