package btree

import (
	"testing"
)

// TestSequentialLoadFillFactor verifies the append-split optimisation:
// ascending inserts must leave leaves nearly full, so the index stays a
// small fraction of the data (the paper's index is <1% of table size).
func TestSequentialLoadFillFactor(t *testing.T) {
	e := newEnv(t, 4096)
	const n = 20000
	v := make([]byte, 92)
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, v, e.lsn()); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cnt, err := countRows(e.tree)
	if err != nil || cnt != n {
		t.Fatalf("Count = %d (%v)", cnt, err)
	}
	// Page capacity: (1024-24)/(8+92+4) ≈ 9 rows. Near-full leaves
	// means ≈ n/9 leaves; mid-splits would give ≈ n/4.5.
	totalPages := int(e.tree.Meta().NextPID) - 2
	maxRows := (1024 - 24) / (8 + 92 + 4)
	perfect := n / maxRows
	if totalPages > perfect+perfect/5 {
		t.Fatalf("sequential load used %d pages; near-full packing needs ~%d", totalPages, perfect)
	}
	// Index must be a small fraction of all pages.
	idx, err := indexPIDs(e.tree)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(len(idx)) / float64(totalPages); frac > 0.03 {
		t.Fatalf("index fraction %.3f > 3%% (index %d of %d pages)", frac, len(idx), totalPages)
	}
}

// TestAppendSplitThenRandomInserts makes sure trees built by append
// splits keep working under later random-order mutations.
func TestAppendSplitThenRandomInserts(t *testing.T) {
	e := newEnv(t, 2048)
	v := make([]byte, 92)
	const n = 5000
	for k := uint64(0); k < n; k += 2 {
		if err := insertAt(e.tree, k, v, e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	// Now fill odd keys in descending order (mid splits).
	for k := uint64(4001); k >= 1 && k <= 4001; k -= 2 {
		if err := insertAt(e.tree, k, v, e.lsn()); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cnt, err := countRows(e.tree)
	if err != nil || cnt != n/2+2001 {
		t.Fatalf("Count = %d (%v), want %d", cnt, err, n/2+2001)
	}
}
