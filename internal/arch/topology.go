package arch

import "fmt"

// Topology enumerates network-on-chip topologies.
type Topology int

// Supported topologies.
const (
	Mesh2D Topology = iota
	Torus2D
	Ring
	Hypercube
	Crossbar
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Mesh2D:
		return "2D mesh"
	case Torus2D:
		return "2D torus"
	case Ring:
		return "ring"
	case Hypercube:
		return "hypercube"
	case Crossbar:
		return "crossbar"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// MeshHops returns the minimal hop count between (x0,y0) and (x1,y1) in
// a 2D mesh (dimension-order routing distance).
func MeshHops(x0, y0, x1, y1 int) int {
	return absInt(x1-x0) + absInt(y1-y0)
}

// TorusHops returns the minimal hop count in a w x h torus with
// wraparound links.
func TorusHops(w, h, x0, y0, x1, y1 int) int {
	dx := absInt(x1 - x0)
	if w-dx < dx {
		dx = w - dx
	}
	dy := absInt(y1 - y0)
	if h-dy < dy {
		dy = h - dy
	}
	return dx + dy
}

// Diameter returns the network diameter (maximum minimal hop count) of a
// topology over n nodes; for mesh/torus n must be a perfect square.
func Diameter(t Topology, n int) (int, error) {
	switch t {
	case Mesh2D:
		side, err := isqrtExact(n)
		if err != nil {
			return 0, err
		}
		return 2 * (side - 1), nil
	case Torus2D:
		side, err := isqrtExact(n)
		if err != nil {
			return 0, err
		}
		return 2 * (side / 2), nil
	case Ring:
		return n / 2, nil
	case Hypercube:
		if n&(n-1) != 0 {
			return 0, fmt.Errorf("arch: hypercube needs power-of-two nodes, got %d", n)
		}
		return log2i(n), nil
	case Crossbar:
		return 1, nil
	default:
		return 0, fmt.Errorf("arch: unknown topology %d", int(t))
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func isqrtExact(n int) (int, error) {
	s := 0
	for s*s < n {
		s++
	}
	if s*s != n {
		return 0, fmt.Errorf("arch: %d nodes is not a perfect square", n)
	}
	return s, nil
}
