// Package digital implements the digital-design substrate: a boolean
// expression engine (parser, evaluator, canonicaliser), truth tables,
// Quine–McCluskey two-level minimisation, a gate-level netlist simulator,
// flip-flop excitation analysis and two's-complement arithmetic. The
// ChipVQA Digital Design questions are generated from these engines, and
// the evaluation judge uses the canonicaliser to compare expression
// answers the way the paper's GPT-4 judge checked equivalence.
package digital

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is a boolean expression AST node.
type Expr interface {
	// Eval computes the expression under a variable assignment.
	Eval(assign map[string]bool) bool
	// String renders the expression in the benchmark's notation:
	// juxtaposition for AND, + for OR, postfix ' for NOT, ^ for XOR.
	String() string
	// vars accumulates variable names.
	vars(set map[string]bool)
}

// Var is a variable reference.
type Var struct{ Name string }

// Const is the constant 0 or 1.
type Const struct{ Value bool }

// Not is logical complement.
type Not struct{ X Expr }

// And is the conjunction of two or more terms.
type And struct{ Xs []Expr }

// Or is the disjunction of two or more terms.
type Or struct{ Xs []Expr }

// Xor is exclusive or of exactly two terms.
type Xor struct{ A, B Expr }

// Eval implements Expr.
func (v *Var) Eval(a map[string]bool) bool { return a[v.Name] }

// Eval implements Expr.
func (c *Const) Eval(map[string]bool) bool { return c.Value }

// Eval implements Expr.
func (n *Not) Eval(a map[string]bool) bool { return !n.X.Eval(a) }

// Eval implements Expr.
func (x *And) Eval(a map[string]bool) bool {
	for _, e := range x.Xs {
		if !e.Eval(a) {
			return false
		}
	}
	return true
}

// Eval implements Expr.
func (x *Or) Eval(a map[string]bool) bool {
	for _, e := range x.Xs {
		if e.Eval(a) {
			return true
		}
	}
	return false
}

// Eval implements Expr.
func (x *Xor) Eval(a map[string]bool) bool { return x.A.Eval(a) != x.B.Eval(a) }

func (v *Var) vars(s map[string]bool) { s[v.Name] = true }
func (c *Const) vars(map[string]bool) {}
func (n *Not) vars(s map[string]bool) { n.X.vars(s) }
func (x *And) vars(s map[string]bool) {
	for _, e := range x.Xs {
		e.vars(s)
	}
}
func (x *Or) vars(s map[string]bool) {
	for _, e := range x.Xs {
		e.vars(s)
	}
}
func (x *Xor) vars(s map[string]bool) { x.A.vars(s); x.B.vars(s) }

// String implements Expr.
func (v *Var) String() string { return v.Name }

// String implements Expr.
func (c *Const) String() string {
	if c.Value {
		return "1"
	}
	return "0"
}

// String implements Expr.
func (n *Not) String() string { return exprString(n) }

// String implements Expr.
func (x *And) String() string { return exprString(x) }

// String implements Expr.
func (x *Or) String() string { return exprString(x) }

// String implements Expr.
func (x *Xor) String() string { return exprString(x) }

// exprString renders e with a single allocation for the result.
func exprString(e Expr) string {
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

// appendExpr appends the rendering of e to dst. A complement wraps
// anything but a variable or constant in parentheses, an AND
// parenthesises OR and XOR operands, and an XOR parenthesises OR
// operands, so every rendering reparses with the same structure ('+'
// binds looser than '^', which binds looser than juxtaposition).
func appendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case *Var:
		return append(dst, x.Name...)
	case *Const:
		return append(dst, x.String()...)
	case *Not:
		switch x.X.(type) {
		case *Var, *Const:
			return append(appendExpr(dst, x.X), '\'')
		default:
			return append(appendExpr(append(dst, '('), x.X), ")'"...)
		}
	case *And:
		for _, op := range x.Xs {
			switch op.(type) {
			case *Or, *Xor:
				dst = append(appendExpr(append(dst, '('), op), ')')
			default:
				dst = appendExpr(dst, op)
			}
		}
		return dst
	case *Or:
		for i, op := range x.Xs {
			if i > 0 {
				dst = append(dst, " + "...)
			}
			dst = appendExpr(dst, op)
		}
		return dst
	case *Xor:
		dst = appendXorOperand(dst, x.A)
		return appendXorOperand(append(dst, " ^ "...), x.B)
	default:
		panic(fmt.Sprintf("digital: unknown expression node %T", e))
	}
}

func appendXorOperand(dst []byte, e Expr) []byte {
	if _, isOr := e.(*Or); isOr {
		return append(appendExpr(append(dst, '('), e), ')')
	}
	return appendExpr(dst, e)
}

// Vars returns the sorted variable names appearing in the expression.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Parser. Grammar (standard digital-design notation):
//
//	or     := xor ('+' xor)*
//	xor    := and ('^' and)*
//	and    := unary (unary | '*' unary)*      (juxtaposition is AND)
//	unary  := primary '\''*                   (postfix complement)
//	primary:= VAR | '0' | '1' | '(' or ')'
//
// Variables are single letters optionally followed by digits or a
// trailing lowercase/uppercase distinction (Q, q, S, R, x1, ...).
// ---------------------------------------------------------------------

type parser struct {
	src []rune
	pos int
}

// Parse parses an expression in the benchmark's boolean notation.
// A leading "NAME =" assignment prefix (as in "Q = S'R' + Sq") is
// accepted and skipped.
func Parse(s string) (Expr, error) {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, "="); i >= 0 && !strings.ContainsAny(s[:i], "+^()'") {
		s = s[i+1:]
	}
	p := &parser{src: []rune(s)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("digital: trailing input at %d in %q", p.pos, s)
	}
	return e, nil
}

// MustParse parses or panics; for use in generators with known-good input.
func MustParse(s string) Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() rune {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseOr() (Expr, error) {
	first, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for p.peek() == '+' {
		p.pos++
		t, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &Or{Xs: terms}, nil
}

func (p *parser) parseXor() (Expr, error) {
	a, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == '^' {
		p.pos++
		b, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		a = &Xor{A: a, B: b}
	}
	return a, nil
}

func (p *parser) parseAnd() (Expr, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	terms := []Expr{first}
	for {
		r := p.peek()
		if r == '*' {
			p.pos++
			r = p.peek()
		}
		if isVarStart(r) || r == '(' || r == '0' || r == '1' {
			t, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
			continue
		}
		break
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &And{Xs: terms}, nil
}

func (p *parser) parseUnary() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek() == '\'' {
		p.pos++
		e = &Not{X: e}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	r := p.peek()
	switch {
	case r == '(':
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("digital: missing ')' at %d", p.pos)
		}
		p.pos++
		return e, nil
	case r == '0':
		p.pos++
		return &Const{Value: false}, nil
	case r == '1':
		p.pos++
		return &Const{Value: true}, nil
	case isVarStart(r):
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		return &Var{Name: string(p.src[start:p.pos])}, nil
	case r == 0:
		return nil, fmt.Errorf("digital: unexpected end of expression")
	default:
		return nil, fmt.Errorf("digital: unexpected %q at %d", r, p.pos)
	}
}

func isVarStart(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
}

// ---------------------------------------------------------------------
// Canonical form and equivalence.
// ---------------------------------------------------------------------

// Minterms returns the sorted minterm indices of the expression over the
// given ordered variable list (bit 0 of the index is the last variable,
// the textbook convention).
func Minterms(e Expr, vars []string) []int {
	n := len(vars)
	var out []int
	assign := make(map[string]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i, v := range vars {
			assign[v] = m&(1<<(n-1-i)) != 0
		}
		if e.Eval(assign) {
			out = append(out, m)
		}
	}
	return out
}

// Equivalent reports whether two expressions compute the same function
// over the union of their variables.
func Equivalent(a, b Expr) bool {
	set := make(map[string]bool)
	a.vars(set)
	b.vars(set)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	if len(vars) > 20 {
		return false // refuse pathological inputs
	}
	assign := make(map[string]bool, len(vars))
	for m := 0; m < 1<<len(vars); m++ {
		for i, v := range vars {
			assign[v] = m&(1<<i) != 0
		}
		if a.Eval(assign) != b.Eval(assign) {
			return false
		}
	}
	return true
}

// EquivalentStrings parses both strings and reports functional
// equivalence; a parse failure yields false.
func EquivalentStrings(a, b string) bool {
	ea, err := Parse(a)
	if err != nil {
		return false
	}
	eb, err := Parse(b)
	if err != nil {
		return false
	}
	return Equivalent(ea, eb)
}
