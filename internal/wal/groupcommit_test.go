package wal

import (
	"fmt"
	"sync"
	"testing"
)

// TestGroupCommitLSNMonotonicity has 16 goroutines append concurrently
// and verifies the log is a well-formed totally-ordered record
// sequence: every append got a unique LSN, and a scan visits exactly
// the appended records in strictly increasing LSN order.
func TestGroupCommitLSNMonotonicity(t *testing.T) {
	const (
		clients = 16
		perGoro = 200
	)
	log := NewLog()
	gc := NewGroupCommitter(log, nil, 0)

	lsns := make([][]LSN, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				lsn, err := gc.Append(&UpdateRec{
					TxnID:  TxnID(c + 1),
					KeyVal: uint64(i),
					NewVal: []byte(fmt.Sprintf("c%d-i%d", c, i)),
				})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				lsns[c] = append(lsns[c], lsn)
			}
		}(c)
	}
	wg.Wait()
	gc.Flush()

	seen := make(map[LSN]bool, clients*perGoro)
	for c := range lsns {
		for _, lsn := range lsns[c] {
			if seen[lsn] {
				t.Fatalf("duplicate LSN %v", lsn)
			}
			seen[lsn] = true
		}
	}
	if len(seen) != clients*perGoro {
		t.Fatalf("got %d unique LSNs, want %d", len(seen), clients*perGoro)
	}

	// Per-goroutine append order must be monotone (each client sees its
	// own records in log order).
	for c := range lsns {
		for i := 1; i < len(lsns[c]); i++ {
			if lsns[c][i] <= lsns[c][i-1] {
				t.Fatalf("client %d LSNs not monotone: %v then %v", c, lsns[c][i-1], lsns[c][i])
			}
		}
	}

	// A full scan visits every record once, strictly increasing.
	sc := log.NewScanner(FirstLSN(), nil, ScanCost{})
	prev := NilLSN
	n := 0
	for {
		_, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if lsn <= prev {
			t.Fatalf("scan LSNs not strictly increasing: %v after %v", lsn, prev)
		}
		if !seen[lsn] {
			t.Fatalf("scan found unexpected LSN %v", lsn)
		}
		prev = lsn
		n++
	}
	if n != clients*perGoro {
		t.Fatalf("scan saw %d records, want %d", n, clients*perGoro)
	}
}

// TestGroupCommitBatches verifies that concurrent commit waits coalesce
// into fewer log forces than commits, and that every waiter observes
// its record stable.
func TestGroupCommitBatches(t *testing.T) {
	const clients = 16
	log := NewLog()
	var stableMu sync.Mutex
	var stableSeen []LSN
	gc := NewGroupCommitter(log, func(eLSN LSN) {
		stableMu.Lock()
		stableSeen = append(stableSeen, eLSN)
		stableMu.Unlock()
	}, 0)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lsn := gc.MustAppend(&CommitRec{TxnID: TxnID(c + 1)})
				eLSN := gc.WaitStable(lsn)
				if eLSN <= lsn {
					t.Errorf("WaitStable returned %v, not past %v", eLSN, lsn)
					return
				}
				if got := log.FlushedLSN(); got < eLSN {
					t.Errorf("FlushedLSN %v regressed below observed %v", got, eLSN)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := gc.Stats()
	if st.Commits != clients*50 {
		t.Fatalf("Commits = %d, want %d", st.Commits, clients*50)
	}
	if st.Flushes == 0 || st.Flushes > st.Commits {
		t.Fatalf("Flushes = %d out of range (commits %d)", st.Flushes, st.Commits)
	}
	if st.FlushedRecords < st.Flushes {
		t.Fatalf("FlushedRecords %d < Flushes %d", st.FlushedRecords, st.Flushes)
	}

	// EOSL publications are monotone non-decreasing.
	stableMu.Lock()
	defer stableMu.Unlock()
	for i := 1; i < len(stableSeen); i++ {
		if stableSeen[i] < stableSeen[i-1] {
			t.Fatalf("EOSL went backward: %v after %v", stableSeen[i], stableSeen[i-1])
		}
	}
}

// TestGroupCommitSingleFlushCoversBatch checks the core batching
// property deterministically: records appended before one WaitStable
// are all covered by that single flush.
func TestGroupCommitSingleFlushCoversBatch(t *testing.T) {
	log := NewLog()
	gc := NewGroupCommitter(log, nil, 0)
	var last LSN
	for i := 0; i < 10; i++ {
		last = gc.MustAppend(&CommitRec{TxnID: TxnID(i + 1)})
	}
	gc.WaitStable(last)
	st := gc.Stats()
	if st.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", st.Flushes)
	}
	if st.FlushedRecords != 10 {
		t.Fatalf("FlushedRecords = %d, want 10", st.FlushedRecords)
	}
	if got := st.RecordsPerFlush(); got != 10 {
		t.Fatalf("RecordsPerFlush = %v, want 10", got)
	}
	if log.FlushedLSN() != log.EndLSN() {
		t.Fatalf("flush did not reach log end")
	}
}

// TestGroupCommitLeaderYieldsOnlyForAnnouncedWriters drives the
// zero-linger policy from one goroutine: a leader yields exactly when
// an announced writer other than itself is in flight, and StableLSN
// follows the forces the committer sees.
func TestGroupCommitLeaderYieldsOnlyForAnnouncedWriters(t *testing.T) {
	log := NewLog()
	gc := NewGroupCommitter(log, nil, 0)
	commit := func() {
		t.Helper()
		lsn := gc.MustAppend(&CommitRec{TxnID: 1})
		if eLSN := gc.WaitStable(lsn); eLSN <= lsn || gc.StableLSN() != eLSN {
			t.Fatalf("WaitStable(%v) = %v, StableLSN %v", lsn, eLSN, gc.StableLSN())
		}
	}

	commit() // nobody announced
	gc.AnnounceWriter()
	commit() // the leader itself
	if st := gc.Stats(); st.Yields != 0 || st.Writers != 1 {
		t.Fatalf("alone: Yields %d, Writers %d; want 0 and 1", st.Yields, st.Writers)
	}
	gc.AnnounceWriter()
	commit()
	commit()
	if st := gc.Stats(); st.Yields != 2 || st.Flushes != 4 {
		t.Fatalf("with a second writer in flight: Yields %d over %d flushes; want 2 over 4", st.Yields, st.Flushes)
	}
	gc.RetireWriter()
	commit()
	gc.RetireWriter()
	if st := gc.Stats(); st.Yields != 2 || st.Writers != 0 {
		t.Fatalf("after retiring: Yields %d, Writers %d; want 2 and 0", st.Yields, st.Writers)
	}

	// A force that bypasses the committer leaves StableLSN behind — a
	// lower bound — until the committer next looks.
	lsn := gc.MustAppend(&CommitRec{TxnID: 2})
	eLSN := log.Flush()
	if got := gc.StableLSN(); got > eLSN || got > lsn {
		t.Fatalf("StableLSN %v ran ahead of a force it did not see (record %v, stable end %v)", got, lsn, eLSN)
	}
	if got := gc.WaitStable(lsn); got != eLSN || gc.StableLSN() != eLSN {
		t.Fatalf("WaitStable = %v, StableLSN = %v; want %v", got, gc.StableLSN(), eLSN)
	}
	if st := gc.Stats(); st.Flushes != 5 {
		t.Fatalf("a record already stable cost a flush: %d, want 5", st.Flushes)
	}
}
