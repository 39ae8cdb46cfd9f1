// Package corpus is the corpus module's root package: its exported API
// is a root of the unreachable analyzer, aliased re-exports included.
package corpus

import "corpus/shapes"

// Circle re-exports shapes.Circle, so its exported methods are API.
type Circle = shapes.Circle

// NewBox is API, and so is every exported method of what it returns.
func NewBox() *shapes.Box { return &shapes.Box{} }
