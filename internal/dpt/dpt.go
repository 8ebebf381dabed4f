// Package dpt implements the dirty page table of §3 of the paper: a
// conservative approximation of the dirty part of the buffer pool at
// the time of a crash, used to optimise the redo test.
//
// A DPT entry is (PID, rLSN, lastLSN): rLSN approximates (from below,
// never above) the LSN of the first operation that dirtied the page;
// lastLSN is the LSN of the last operation observed for the page and is
// used only while constructing the table.
//
// Safety (§3): every page actually dirty at the crash must appear in
// the table, and each entry's rLSN must not exceed the LSN of the first
// operation that dirtied that page. Extra entries and low rLSNs cost
// time (unnecessary fetches / failed tests) but never correctness — the
// pLSN test backstops them.
package dpt

import (
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Entry is one dirty page table row.
type Entry struct {
	PID     storage.PageID
	RLSN    wal.LSN
	LastLSN wal.LSN
}

// Table is a dirty page table under construction or in use by redo.
type Table struct {
	entries map[storage.PageID]*Entry
}

// New returns an empty table.
func New() *Table {
	return &Table{entries: make(map[storage.PageID]*Entry)}
}

// Add registers pid with the given LSN: a new entry gets rLSN = lastLSN
// = lsn; an existing entry only advances lastLSN (the first mention
// fixes rLSN, per Algorithm 3 / Algorithm 4).
func (t *Table) Add(pid storage.PageID, lsn wal.LSN) {
	if e, ok := t.entries[pid]; ok {
		if lsn > e.LastLSN {
			e.LastLSN = lsn
		}
		return
	}
	t.entries[pid] = &Entry{PID: pid, RLSN: lsn, LastLSN: lsn}
}

// Find returns the entry for pid, or nil.
func (t *Table) Find(pid storage.PageID) *Entry {
	return t.entries[pid]
}

// Len returns the number of entries — the "DPT size" the paper's cost
// model (Appendix B) uses.
func (t *Table) Len() int { return len(t.entries) }

// PruneFlushed applies a flush report to the table under construction:
// for each flushed PID present in the table, the entry is removed when
// its lastLSN shows every update it covers preceded the report's FW-LSN
// (the flush captured them all); otherwise the entry's rLSN is raised
// to FW-LSN, since the flush made everything earlier stable.
//
// FW-LSN is an end of stable log and therefore exclusive: the record at
// FW-LSN itself was appended after the force and may follow the flush.
// The paper's lastLSN ≤ FW-LSN over an inclusive FW-LSN (Algorithm 3
// line 15, Algorithm 4 line 19) is lastLSN < FW-LSN here, for both
// construction algorithms.
func (t *Table) PruneFlushed(written []storage.PageID, fwLSN wal.LSN) {
	for _, pid := range written {
		e, ok := t.entries[pid]
		if !ok {
			continue
		}
		if e.LastLSN < fwLSN {
			delete(t.entries, pid)
		} else if e.RLSN < fwLSN {
			e.RLSN = fwLSN
		}
	}
}
