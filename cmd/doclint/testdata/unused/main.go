// Command m is the caller rule's fixture: its non-test files use some
// of internal/a's exported names.
package main

import (
	"fmt"

	"example.com/m/internal/a"
)

func main() {
	var r a.Runner = a.T{}
	r.Run()
	fmt.Println(a.Used(), a.T{}, a.Box[int]{}.Get())
}
