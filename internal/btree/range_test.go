package btree

import (
	"fmt"
	"testing"
)

func TestScanRange(t *testing.T) {
	e := newEnv(t, 512)
	for k := uint64(0); k < 3000; k += 3 {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := e.tree.ScanRangeFiltered(100, 200, nil, func(k uint64, v []byte) error {
		got = append(got, k)
		if string(v) != string(val(k)) {
			return fmt.Errorf("value mismatch at %d", k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 102..198 step 3: 33 keys.
	if len(got) != 33 {
		t.Fatalf("range returned %d keys: %v", len(got), got)
	}
	if got[0] != 102 || got[len(got)-1] != 198 {
		t.Fatalf("bounds wrong: %d..%d", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("range out of order")
		}
	}
}

func TestScanRangeEdges(t *testing.T) {
	e := newEnv(t, 256)
	for k := uint64(10); k <= 20; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	count := func(lo, hi uint64) int {
		n := 0
		if err := e.tree.ScanRangeFiltered(lo, hi, nil, func(uint64, []byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if count(10, 20) != 11 {
		t.Fatalf("full range = %d", count(10, 20))
	}
	if count(15, 15) != 1 {
		t.Fatal("single-key range wrong")
	}
	if count(21, 30) != 0 {
		t.Fatal("past-end range non-empty")
	}
	if count(0, 9) != 0 {
		t.Fatal("before-start range non-empty")
	}
	if count(20, 10) != 0 {
		t.Fatal("inverted range non-empty")
	}
}

func TestScanRangeCrossesLeaves(t *testing.T) {
	e := newEnv(t, 512)
	const n = 5000
	v := make([]byte, 92)
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, v, e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	if e.tree.Meta().Height < 2 {
		t.Fatal("tree too small to cross leaves")
	}
	got := 0
	if err := e.tree.ScanRangeFiltered(1000, 3999, nil, func(uint64, []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 3000 {
		t.Fatalf("range saw %d keys, want 3000", got)
	}
}
