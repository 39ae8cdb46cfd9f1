package phys

import "fmt"

// Block is a rectangular macro with a width and height.
type Block struct {
	Name string
	W, H float64
}

// SliceOp combines two floorplan subtrees.
type SliceOp int

// Slicing operators: H stacks vertically (one above the other), V places
// side by side.
const (
	SliceH SliceOp = iota // horizontal cut: heights add, widths max
	SliceV                // vertical cut: widths add, heights max
)

// SlicingNode is a node of a slicing-tree floorplan: either a leaf block
// or an operator over two children.
type SlicingNode struct {
	Leaf        *Block
	Op          SliceOp
	Left, Right *SlicingNode
}

// LeafNode wraps a block.
func LeafNode(b Block) *SlicingNode { return &SlicingNode{Leaf: &b} }

// Combine joins two subtrees with an operator.
func Combine(op SliceOp, l, r *SlicingNode) *SlicingNode {
	return &SlicingNode{Op: op, Left: l, Right: r}
}

// Shape returns the bounding box (w, h) of the subtree.
func (n *SlicingNode) Shape() (w, h float64) {
	if n.Leaf != nil {
		return n.Leaf.W, n.Leaf.H
	}
	lw, lh := n.Left.Shape()
	rw, rh := n.Right.Shape()
	switch n.Op {
	case SliceH:
		return maxF(lw, rw), lh + rh
	default:
		return lw + rw, maxF(lh, rh)
	}
}

// Area returns the bounding-box area of the subtree.
func (n *SlicingNode) Area() float64 {
	w, h := n.Shape()
	return w * h
}

// DeadSpace returns bounding-box area minus the sum of block areas.
func (n *SlicingNode) DeadSpace() float64 {
	return n.Area() - n.blockArea()
}

func (n *SlicingNode) blockArea() float64 {
	if n.Leaf != nil {
		return n.Leaf.W * n.Leaf.H
	}
	return n.Left.blockArea() + n.Right.blockArea()
}

// ParsePolish builds a slicing tree from a normalised Polish expression
// over the named blocks, e.g. "A B V C H" (operands push, operators pop
// two). V is the vertical-cut (side-by-side) operator, H horizontal.
func ParsePolish(expr []string, blocks map[string]Block) (*SlicingNode, error) {
	var stack []*SlicingNode
	for _, tok := range expr {
		switch tok {
		case "H", "V":
			if len(stack) < 2 {
				return nil, fmt.Errorf("phys: polish expression underflow at %q", tok)
			}
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			op := SliceV
			if tok == "H" {
				op = SliceH
			}
			stack = append(stack, Combine(op, l, r))
		default:
			b, ok := blocks[tok]
			if !ok {
				return nil, fmt.Errorf("phys: unknown block %q", tok)
			}
			stack = append(stack, LeafNode(b))
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("phys: polish expression leaves %d subtrees", len(stack))
	}
	return stack[0], nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
