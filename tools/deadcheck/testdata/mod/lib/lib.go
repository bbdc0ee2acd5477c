// Package lib holds deadcheck's test cases: reached, init-reached and dead
// functions, an iota sequence main uses one member of, and one method per
// liveness case.
package lib

import "fmt"

// Live is called from main; it is the only root of the methods below.
func Live() {
	T{}.Used()
	var s Shape = Square{}
	_ = s.Area()
	fmt.Println(Named{})
	Outer{}.Promoted()
	_ = Box[int]{}.Get()
	_ = Mislabeled{}
	var z Sizer = Crate{}
	_ = z
	if k, ok := any(Kit{}).(interface{ Kill() }); ok {
		k.Kill()
	}
}

// FromInit is called from an init function.
func FromInit() {}

// Dead is called from nowhere.
func Dead() { T{}.Picked() }

// The sequence lives as one: deleting Second would renumber Third.
const (
	First = iota
	Second
	Third
)

// T is live, but only Dead selects Picked.
type T struct{}

// Used is selected by Live.
func (T) Used() {}

// Picked is selected only by a dead function.
func (T) Picked() {}

// Shape is a module interface.
type Shape interface{ Area() float64 }

// Square is reached through Shape only.
type Square struct{}

// Area is never selected on a Square: Shape's method set keeps it.
func (Square) Area() float64 { return 1 }

// Named is printed, never asked for its name.
type Named struct{}

// String is called by fmt through fmt.Stringer, an imported interface.
func (Named) String() string { return "named" }

// Inner's method is selected through Outer's embedded field.
type Inner struct{}

// Promoted is selected as Outer.Promoted.
func (Inner) Promoted() {}

// Outer embeds Inner.
type Outer struct{ Inner }

// Box is generic; its methods are keyed without type parameters.
type Box[E any] struct{ v E }

// Get is selected on a Box[int].
func (b Box[E]) Get() E { return b.v }

// Put is selected nowhere.
func (b *Box[E]) Put(v E) { b.v = v }

// Oracle is named only by its method, the allowlist tests' entry.
type Oracle struct{}

// M is reached by no root.
func (Oracle) M() { helper() }

// helper is reached only from Oracle.M.
func helper() {}

// Mislabeled is live, but its String does not satisfy fmt.Stringer.
type Mislabeled struct{}

// String returns an int, so fmt never calls it.
func (Mislabeled) String() int { return 0 }

// Sizer is a module interface whose method nothing calls.
type Sizer interface{ Size() int }

// Crate is stored as a Sizer but never asked its size.
type Crate struct{}

// Size is kept by no call of Sizer.Size.
func (Crate) Size() int { return 0 }

// Kit is reached through an anonymous interface.
type Kit struct{}

// Kill is called through interface{ Kill() }.
func (Kit) Kill() {}
