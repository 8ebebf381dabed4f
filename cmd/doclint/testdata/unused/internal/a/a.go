// Package a declares exported names for the caller rule to judge.
package a

// Used is called from the main package.
func Used() int { return helper() }

// OnlyCaller is called only from the second module.
func OnlyCaller() {}

// Allowed has no non-test caller and is allowlisted.
func Allowed() {}

func helper() int { return Limit }

// Limit is used inside its own package.
const Limit = 3

// T is used through fmt and through Runner.
type T struct{}

// String satisfies fmt.Stringer, which the standard library calls.
func (T) String() string { return "t" }

// Run is called through Runner.
func (T) Run() {}

// Runner is an interface whose method is called.
type Runner interface{ Run() }

// Box is generic: its methods are used through instances.
type Box[V any] struct{ v V }

// Get returns the boxed value.
func (b Box[V]) Get() V { return b.v }
