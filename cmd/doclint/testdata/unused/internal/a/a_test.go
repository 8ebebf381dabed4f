package a

import "testing"

func TestAllowed(t *testing.T) { Allowed() }
