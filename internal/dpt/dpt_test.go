package dpt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logrec/internal/storage"
	"logrec/internal/wal"
)

func TestAddFirstMentionFixesRLSN(t *testing.T) {
	tab := New()
	tab.Add(7, 100)
	tab.Add(7, 200)
	tab.Add(7, 300)
	e := tab.Find(7)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.RLSN != 100 {
		t.Fatalf("rLSN = %v, want 100 (first mention)", e.RLSN)
	}
	if e.LastLSN != 300 {
		t.Fatalf("lastLSN = %v, want 300 (latest mention)", e.LastLSN)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestAddIgnoresStaleLastLSN(t *testing.T) {
	tab := New()
	tab.Add(7, 300)
	tab.Add(7, 100) // out-of-order mention must not regress lastLSN
	e := tab.Find(7)
	if e.LastLSN != 300 {
		t.Fatalf("lastLSN = %v, want 300", e.LastLSN)
	}
}

func TestFindMissing(t *testing.T) {
	tab := New()
	if tab.Find(9) != nil {
		t.Fatal("found entry in empty table")
	}
}

// TestPruneKeepsEntryAtFWLSN: FW-LSN is an exclusive end of stable log,
// so an entry whose lastLSN equals it names an update the flush may not
// have captured. It stays, with its rLSN raised.
func TestPruneKeepsEntryAtFWLSN(t *testing.T) {
	tab := New()
	tab.Add(1, 50)  // lastLSN 50  < FW → removed
	tab.Add(2, 100) // lastLSN 100 = FW → kept
	tab.Add(3, 50)  // rLSN 50 ...
	tab.Add(3, 150) // ... lastLSN 150 > FW → kept; rLSN raised to FW
	tab.PruneFlushed([]storage.PageID{1, 2, 3}, 100)
	if tab.Find(1) != nil {
		t.Fatal("prune kept an entry below FW-LSN")
	}
	for _, pid := range []storage.PageID{2, 3} {
		if e := tab.Find(pid); e == nil || e.RLSN != 100 {
			t.Fatalf("page %d: entry %+v, want kept with rLSN raised to 100", pid, e)
		}
	}
}

func TestPruneIgnoresUnknownPIDs(t *testing.T) {
	tab := New()
	tab.Add(1, 10)
	tab.PruneFlushed([]storage.PageID{99}, 1000)
	if tab.Len() != 1 {
		t.Fatal("prune of unknown PID changed the table")
	}
}

// TestQuickRLSNNeverExceedsFirstMention is the DPT safety half the
// table itself can guarantee: however Adds and Prunes interleave, an
// entry's rLSN never exceeds any LSN later used to re-Add it... i.e. the
// rLSN only moves via first-mention or a flush that covered the page.
func TestQuickRLSNNeverExceedsFirstMention(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New()
		// firstAfterClean[pid] = LSN of the first Add after the page
		// was last removed (i.e. flushed clean) — the true rLSN bound.
		firstAfterClean := make(map[storage.PageID]wal.LSN)
		lsn := wal.LSN(100)
		for op := 0; op < 400; op++ {
			pid := storage.PageID(rng.Intn(20))
			lsn += wal.LSN(rng.Intn(10) + 1)
			if rng.Intn(4) != 0 {
				tab.Add(pid, lsn)
				if _, ok := firstAfterClean[pid]; !ok {
					firstAfterClean[pid] = lsn
				}
			} else {
				// A flush report covering everything up to now (the
				// exclusive end is one past lsn): pages flushed at this
				// instant are clean.
				tab.PruneFlushed([]storage.PageID{pid}, lsn+1)
				if e := tab.Find(pid); e == nil {
					delete(firstAfterClean, pid)
				}
			}
			// Invariant: rLSN ≤ first-dirtying LSN is the DPT safety
			// direction rLSN must respect *downward*; here we verify
			// the table never pushes rLSN above lastLSN.
			for _, e := range tab.entries {
				if e.RLSN > e.LastLSN {
					t.Logf("seed %d: rLSN %v > lastLSN %v", seed, e.RLSN, e.LastLSN)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
