package main

import (
	"bytes"
	"strings"
	"testing"

	"logrec/internal/harness"
	"logrec/internal/wal"
)

// TestUpdateFieldsAddUp runs the command's measurement at -scale 4 and
// checks its per-field update breakdown against the frames: the fields
// must sum to exactly the update records' bytes, so a field the log
// format gains or loses fails here before the breakdown misleads, and
// no field is a table (format v9 logs none).
func TestUpdateFieldsAddUp(t *testing.T) {
	st, err := measure(harness.DefaultConfig().Scaled(4).WithCacheFraction(0.16))
	if err != nil {
		t.Fatal(err)
	}
	u := st.byType[wal.TypeUpdate]
	if u == nil || u.count == 0 {
		t.Fatal("the workload logged no update")
	}
	var sum int64
	for _, b := range st.fields {
		sum += b
	}
	if sum != u.bytes {
		t.Fatalf("update fields %v sum to %d bytes, the %d update frames hold %d", st.fields, sum, u.count, u.bytes)
	}
	var out bytes.Buffer
	st.report(&out, "standard")
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "bytes an update spends on each field:") {
			line = l
		}
	}
	if line == "" || strings.Contains(line, "table") {
		t.Fatalf("per-field line %q: want one, naming no table", line)
	}
}
