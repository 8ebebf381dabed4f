// Command caller stands for a second module whose non-test files count
// as callers.
package main

import "example.com/m/internal/a"

func main() { a.OnlyCaller() }
