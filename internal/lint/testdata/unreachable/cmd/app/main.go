// The corpus module's main package. Its roots are main, init and the
// package-level initializers. Everything else must be reached from them
// through a reference or an interface a live type implements, or be
// kept by a directive.
package main

import (
	"fmt"
	"sort"
)

var table = map[string]func() int{"one": fromTable}

// A registration nothing reads, like a discipline registering itself.
var _ = register(fromRegistry)

func init() { fromInit() }

func main() {
	f := valueOnly
	f()
	fromMain()
	var s shape = square{2}
	fmt.Println(s.area(), celsius(21), table["one"]())
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(words)
	fmt.Println(words, label{"x"}.text)
	var n named = derived{}
	fmt.Println(n, nameOnly{})
}

func fromInit() {}

func fromTable() int { return 1 }

func register(f func() int) bool { return f != nil }

func fromRegistry() int { return 2 }

// valueOnly is never called by name, only taken as a value.
func valueOnly() {}

type shape interface{ area() float64 }

type square struct{ side float64 }

func (q square) area() float64 { return q.side * q.side }

func (q square) perimeter() float64 { return 4 * q.side } // want `square.perimeter is unreachable`

type celsius float64

// String is live through fmt.Stringer: celsius reaches fmt.Println.
func (c celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// byLen is live through sort.Interface, the parameter of sort.Sort.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// named is met by derived only through the id it promotes from base.
type named interface {
	id() int
	name() string
}

type base struct{}

// id is live although only derived implements named.
func (base) id() int { return 1 }

func (base) unused() {} // want `main.base.unused is unreachable`

type derived struct{ base }

func (derived) name() string { return "d" }

type nameOnly struct{}

// name matches a method of named, but nameOnly lacks id, so it does not
// implement named.
func (nameOnly) name() string { return "n" } // want `main.nameOnly.name is unreachable`

type label struct{ text string }

// Name matches fs.FileInfo.Name and fs.DirEntry.Name, but the program
// mentions neither and label implements no interface that has it.
func (l label) Name() string { return l.text } // want `main.label.Name is unreachable`

func dead() { onlyDead() } // want `main.dead is unreachable`

func onlyDead() {} // want `main.onlyDead is unreachable`

// keptForTest has no caller outside its test.
//
//lint:ignore unreachable called only by TestKeptForTest
func keptForTest() { keptCallee() }

// keptCallee is quiet: the kept function calls it.
func keptCallee() {}

// fromMain is called, so its directive suppresses nothing.
/* want `stale //lint:ignore: no unreachable finding` */ //lint:ignore unreachable stale once main started calling it
func fromMain() {
	fmt.Print()
}
