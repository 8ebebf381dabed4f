package dc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"logrec/internal/btree"
	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// loadVal is a row value whose length varies from row to row. The
// buffer is reused, as a caller's valFn may.
func loadVal(buf []byte, k uint64) []byte {
	buf = buf[:40+(k*7)%53]
	for i := range buf {
		buf[i] = byte(k + uint64(i))
	}
	return buf
}

// rowsFillingOneLeaf returns how many loadVal rows fit one leaf exactly.
func rowsFillingOneLeaf(pageSize int) int {
	p := page.New(pageSize, page.TypeLeaf)
	buf := make([]byte, 128)
	for k := uint64(0); ; k++ {
		if err := p.Append(k, loadVal(buf, k)); err != nil {
			return int(k)
		}
	}
}

func emptyDC(t *testing.T, cache int) (*DC, *storage.Disk) {
	t.Helper()
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(clock, disk, wal.NewLog(), cache, 1, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d, disk
}

// TestLoaderBuildsSameImages is the bulk loader's oracle: for every pool
// size × row count, the table LoadRow builds equals — same Meta, every
// page on the device byte for byte — the one the same rows produce
// through row-at-a-time Tree.InsertLogged on an unlogged tree.
func TestLoaderBuildsSameImages(t *testing.T) {
	full := rowsFillingOneLeaf(storage.DefaultConfig().PageSize)
	buf := make([]byte, 128)
	for _, cache := range []int{16, 200, 5000} {
		for _, rows := range []int{0, 1, full, full + 1, 3000, 200000} {
			t.Run(fmt.Sprintf("pool%d/rows%d", cache, rows), func(t *testing.T) {
				ref, refDisk := emptyDC(t, cache)
				for k := uint64(0); k < uint64(rows); k++ {
					if err := ref.Tree().InsertLogged(k, loadVal(buf, k), func(storage.PageID) wal.LSN { return wal.NilLSN }); err != nil {
						t.Fatal(err)
					}
				}
				if err := ref.FinishLoad(); err != nil {
					t.Fatal(err)
				}

				d, disk := emptyDC(t, cache)
				for k := uint64(0); k < uint64(rows); k++ {
					if err := d.LoadRow(k, loadVal(buf, k)); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.FinishLoad(); err != nil {
					t.Fatal(err)
				}

				meta := d.Tree().Meta()
				if want := ref.Tree().Meta(); meta != want {
					t.Fatalf("Meta %+v, row-at-a-time build has %+v", meta, want)
				}
				if rows == full && meta.NextPID != storage.MetaPageID+2 {
					t.Fatalf("%d rows should fill the root leaf exactly, NextPID = %d", rows, meta.NextPID)
				}
				if rows == full+1 && meta.Height != 2 {
					t.Fatalf("%d rows should open a second leaf, height = %d", rows, meta.Height)
				}
				for pid := storage.MetaPageID; pid < meta.NextPID; pid++ {
					got, err := disk.Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refDisk.Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("page %d differs from the row-at-a-time build", pid)
					}
				}
				if n := disk.NumPages(); n != int(meta.NextPID)-1 {
					t.Fatalf("device holds %d pages, want %d", n, meta.NextPID-1)
				}
				if pins, dirty := d.Pool().PinnedCount(), d.Pool().DirtyCount(); pins != 0 || dirty != 0 {
					t.Fatalf("after FinishLoad: %d pinned, %d dirty", pins, dirty)
				}
				if err := d.Tree().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				next := uint64(0)
				err := d.Tree().Scan(func(k uint64, v []byte) error {
					if k != next || !bytes.Equal(v, loadVal(buf, k)) {
						return fmt.Errorf("scan: key %d (want %d) or its value is wrong", k, next)
					}
					next++
					return nil
				})
				if err != nil || next != uint64(rows) {
					t.Fatalf("scan saw %d rows, want %d (%v)", next, rows, err)
				}
			})
		}
	}
}

// TestLoadWritesEachPageOnce: pages leave the loader finished, so the
// lazywriter and the final flush together write every page one time,
// and the load asks the pool for exactly one page (the empty root).
func TestLoadWritesEachPageOnce(t *testing.T) {
	d, disk := emptyDC(t, 200)
	buf := make([]byte, 128)
	for k := uint64(0); k < 50000; k++ {
		if err := d.LoadRow(k, loadVal(buf, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	pages := int64(d.Tree().Meta().NextPID) - 1 // boot page included
	if w := disk.Stats().PagesWritten; w != pages {
		t.Fatalf("%d page writes for %d pages", w, pages)
	}
	if st := d.Pool().Stats(); st.Hits+st.Misses != 1 {
		t.Fatalf("load made %d pool requests, want 1", st.Hits+st.Misses)
	}
}

// TestLoadRowContract: rows must ascend, fit a page, and arrive before
// StartLogging on an empty table.
func TestLoadRowContract(t *testing.T) {
	d, _ := emptyDC(t, 64)
	if err := d.LoadRow(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadRow(5, []byte("again")); err == nil {
		t.Fatal("duplicate key loaded")
	}
	if err := d.LoadRow(4, []byte("four")); err == nil {
		t.Fatal("descending key loaded")
	}
	huge := make([]byte, storage.DefaultConfig().PageSize)
	if err := d.LoadRow(6, huge); !errors.Is(err, btree.ErrValueTooLarge) {
		t.Fatalf("page-sized value: %v, want ErrValueTooLarge", err)
	}
	if err := d.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	if n, _ := countRows(d); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
	// A second load into the now non-empty table is refused.
	if err := d.LoadRow(7, []byte("seven")); err == nil {
		t.Fatal("LoadRow into a loaded table succeeded")
	}

	logged, _ := emptyDC(t, 64)
	logged.StartLogging()
	if err := logged.LoadRow(1, []byte("one")); err == nil {
		t.Fatal("LoadRow after StartLogging succeeded")
	}
}
