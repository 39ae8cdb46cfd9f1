package phys

import "fmt"

// Grid is a routing grid with blocked cells.
type Grid struct {
	W, H    int
	blocked []bool // by cell index y*W+x
}

// NewGrid returns an empty routing grid.
func NewGrid(w, h int) *Grid {
	return &Grid{W: w, H: h, blocked: make([]bool, w*h)}
}

// Block marks a cell as an obstacle. Cells off the grid are blocked
// already.
func (g *Grid) Block(p Pt) {
	if g.onGrid(p) {
		g.blocked[p.Y*g.W+p.X] = true
	}
}

// BlockRect blocks every cell in [x0,x1] x [y0,y1].
func (g *Grid) BlockRect(x0, y0, x1, y1 int) {
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.Block(Pt{x, y})
		}
	}
}

func (g *Grid) onGrid(p Pt) bool {
	return p.X >= 0 && p.Y >= 0 && p.X < g.W && p.Y < g.H
}

// Blocked reports whether a cell is an obstacle or off-grid.
func (g *Grid) Blocked(p Pt) bool {
	return !g.onGrid(p) || g.blocked[p.Y*g.W+p.X]
}

// Route runs Lee's wave-propagation maze router from src to dst and
// returns the shortest path (inclusive of endpoints) or an error when no
// route exists. Ties resolve in the fixed neighbour order E, W, N, S so
// results are deterministic.
func (g *Grid) Route(src, dst Pt) ([]Pt, error) {
	if g.Blocked(src) || g.Blocked(dst) {
		return nil, fmt.Errorf("phys: terminal %v or %v blocked", src, dst)
	}
	// dist holds each reached cell's wave number, -1 for unreached.
	dist := make([]int, g.W*g.H)
	for i := range dist {
		dist[i] = -1
	}
	at := func(p Pt) *int { return &dist[p.Y*g.W+p.X] }
	*at(src) = 0
	dirs := [...]Pt{{1, 0}, {-1, 0}, {0, -1}, {0, 1}}
	frontier, next := make([]Pt, 0, g.W*g.H), make([]Pt, 0, g.W*g.H)
	frontier = append(frontier, src)
	for len(frontier) > 0 && *at(dst) < 0 {
		next = next[:0]
		for _, p := range frontier {
			for _, d := range dirs {
				q := Pt{p.X + d.X, p.Y + d.Y}
				if g.Blocked(q) || *at(q) >= 0 {
					continue
				}
				*at(q) = *at(p) + 1
				next = append(next, q)
			}
		}
		frontier, next = next, frontier
	}
	if *at(dst) < 0 {
		return nil, fmt.Errorf("phys: no route from %v to %v", src, dst)
	}
	// Backtrace from dst, filling the path from its end.
	path := make([]Pt, *at(dst)+1)
	cur := dst
	path[len(path)-1] = cur
	for cur != src {
		for _, d := range dirs {
			q := Pt{cur.X + d.X, cur.Y + d.Y}
			if g.onGrid(q) && *at(q) == *at(cur)-1 {
				cur = q
				path[*at(q)] = q
				break
			}
		}
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
