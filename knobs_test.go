package logrec_test

import (
	"reflect"
	"testing"

	"logrec/internal/core"
	"logrec/internal/dc"
	"logrec/internal/engine"
	"logrec/internal/replica"
	"logrec/internal/storage"
	"logrec/internal/tracker"
)

// TestKnobCount pins how many settable values each config struct
// carries. A field added or removed here is a knob added or removed:
// ROADMAP's knob audit ("every remaining knob earns a number") asks that
// each one be justified by a measured number or derived from values the
// engine already has, so the count is changed on purpose, in the same
// diff that changes the struct.
func TestKnobCount(t *testing.T) {
	for _, c := range []struct {
		config any
		fields int
	}{
		{engine.Config{}, 11},
		{core.Options{}, 2},
		{storage.Config{}, 6},
		{replica.Config{}, 3},
		{dc.Config{}, 2},
		{tracker.Config{}, 3},
	} {
		typ := reflect.TypeOf(c.config)
		if n := typ.NumField(); n != c.fields {
			t.Errorf("%v has %d fields, pinned at %d: justify the knob by a measured number or derive it "+
				"(ROADMAP's knob audit), then re-pin the count here", typ, n, c.fields)
		}
	}
}
