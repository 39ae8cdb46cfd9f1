// Package shapes declares the types the corpus root re-exports.
package shapes

// Circle is re-exported by the root package as an alias.
type Circle struct{ R float64 }

// Area is live: Circle is API through the alias.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

func (c Circle) grow() { c.R++ } // want `shapes.Circle.grow is unreachable`

// Box is reachable only through the result of corpus.NewBox.
type Box struct{ Lid Lid }

// Open is live: a caller of corpus.NewBox can call it.
func (b *Box) Open() {}

// Lid is reachable through Box's exported field.
type Lid struct{}

// Lift is live through the exported field Box.Lid.
func (Lid) Lift() {}

// Hidden appears nowhere in the API.
type Hidden struct{}

func (Hidden) Show() {} // want `shapes.Hidden.Show is unreachable`
