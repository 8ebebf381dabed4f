package dc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

func newDC(t *testing.T, rows, cache int) (*DC, *wal.Log, *storage.Disk, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog()
	d, err := New(clock, disk, log, cache, 1, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		if err := d.BulkLoad(rows, func(k uint64) []byte {
			return []byte(fmt.Sprintf("row-%08d", k))
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.StartLogging()
	return d, log, disk, clock
}

func fixedLSN(log *wal.Log) func(storage.PageID) wal.LSN {
	return func(storage.PageID) wal.LSN {
		return log.MustAppend(&wal.CommitRec{TxnID: wal.OpensTxn})
	}
}

func TestBulkLoadPersistsEverything(t *testing.T) {
	d, _, disk, _ := newDC(t, 1000, 128)
	if got := d.Pool().DirtyCount(); got != 0 {
		t.Fatalf("%d dirty pages after bulk load", got)
	}
	// Boot page readable and consistent.
	raw, err := disk.Read(storage.MetaPageID)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.tree.Root != d.Tree().Meta().Root || st.tree.NextPID != d.Tree().Meta().NextPID {
		t.Fatalf("boot meta %+v != tree meta %+v", st.tree, d.Tree().Meta())
	}
	cnt, err := d.Tree().Count()
	if err != nil || cnt != 1000 {
		t.Fatalf("Count = %d (%v)", cnt, err)
	}
}

func TestOpenAttachesToBootPage(t *testing.T) {
	d, log, disk, _ := newDC(t, 500, 128)
	wantMeta := d.Tree().Meta()
	clock2 := &sim.Clock{}
	fork := disk.Fork(clock2)
	d2, err := Open(clock2, fork, log, 128, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Tree().Meta() != wantMeta {
		t.Fatalf("reopened meta %+v, want %+v", d2.Tree().Meta(), wantMeta)
	}
	v, found, err := d2.Read(1, 123)
	if err != nil || !found || !bytes.Equal(v, []byte("row-00000123")) {
		t.Fatalf("read after reopen: %q %v %v", v, found, err)
	}
}

func TestOpenWithoutBootPageFails(t *testing.T) {
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(clock, disk, wal.NewLog(), 64, 0, DefaultConfig()); err == nil {
		t.Fatal("Open succeeded without a boot page")
	}
}

func TestUpdateStampsPageWithLogFnLSN(t *testing.T) {
	d, log, _, _ := newDC(t, 100, 64)
	var gotPID storage.PageID
	var lsn wal.LSN
	err := d.Update(1, 50, []byte("new-value-xx"), func(pid storage.PageID) wal.LSN {
		gotPID = pid
		lsn = log.MustAppend(&wal.CommitRec{TxnID: wal.OpensTxn})
		return lsn
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotPID == storage.InvalidPageID {
		t.Fatal("logFn did not receive a PID")
	}
	f, err := d.Pool().Get(gotPID)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Pool().Unpin(f)
	if f.Page.LSN() != uint64(lsn) {
		t.Fatalf("pLSN = %d, want %d", f.Page.LSN(), lsn)
	}
	if !f.Dirty || f.LastLSN != lsn {
		t.Fatalf("frame not marked dirty at %v", lsn)
	}
}

func TestUnknownTableRejected(t *testing.T) {
	d, log, _, _ := newDC(t, 10, 64)
	if _, _, err := d.Read(99, 1); err == nil {
		t.Fatal("read of unknown table succeeded")
	}
	if err := d.Update(99, 1, []byte("x"), fixedLSN(log)); err == nil {
		t.Fatal("update of unknown table succeeded")
	}
}

func TestEOSLUnlocksFlushes(t *testing.T) {
	d, log, _, _ := newDC(t, 100, 64)
	if err := d.Update(1, 1, []byte("val-after-eosl"), fixedLSN(log)); err != nil {
		t.Fatal(err)
	}
	d.EOSL(log.Flush())
	if d.Pool().ELSN() != log.FlushedLSN() {
		t.Fatal("EOSL not applied to pool")
	}
}

func TestRSSPFlushesAndPersistsBootPage(t *testing.T) {
	d, log, disk, _ := newDC(t, 200, 128)
	for k := uint64(0); k < 50; k++ {
		if err := d.Update(1, k, []byte(fmt.Sprintf("upd-%07d", k)), fixedLSN(log)); err != nil {
			t.Fatal(err)
		}
	}
	d.EOSL(log.Flush())
	if d.Pool().DirtyCount() == 0 {
		t.Fatal("nothing dirty before RSSP")
	}
	rssp := log.MustAppend(&wal.BeginCkptRec{})
	d.EOSL(log.Flush())
	if err := d.RSSP(rssp); err != nil {
		t.Fatal(err)
	}
	if got := d.Pool().DirtyCount(); got != 0 {
		t.Fatalf("%d dirty pages survive RSSP", got)
	}
	if d.RsspLSN() != rssp {
		t.Fatalf("rssp = %v, want %v", d.RsspLSN(), rssp)
	}
	raw, err := disk.Read(storage.MetaPageID)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.rsspLSN != rssp {
		t.Fatalf("boot rssp = %v, want %v", st.rsspLSN, rssp)
	}
	// An RSSP record is on the log for DC recovery.
	if log.AppendCount(wal.TypeRSSP) != 1 {
		t.Fatal("no RSSP record logged")
	}
}

func TestTrackersFeedFromUpdatesAndFlushes(t *testing.T) {
	// 5000 rows ≈ 130 leaf pages at 4 KB (39 rows/page) vs a 64-page
	// cache: updates must evict and flush, driving ∆/BW records.
	d, log, _, _ := newDC(t, 5000, 64)
	for k := uint64(0); k < 4000; k += 7 {
		if err := d.Update(1, k, []byte(fmt.Sprintf("upd-%07d", k)), fixedLSN(log)); err != nil {
			t.Fatal(err)
		}
		d.EOSL(log.Flush())
	}
	d.Recorder().ForceEmit()
	log.Flush()
	if log.AppendCount(wal.TypeDelta) == 0 {
		t.Fatal("no ∆ records despite flush pressure")
	}
	if d.Recorder().Stats().BWIntervals() == 0 {
		t.Fatal("no BW intervals despite flush pressure")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	st := metaState{}
	st.tree.TableID = 7
	st.tree.Root = 1234
	st.tree.Height = 5
	st.tree.NextPID = 99999
	st.rsspLSN = 0xABCDEF
	buf := encodeMeta(st, 4096)
	if len(buf) != 4096 {
		t.Fatalf("encoded size %d", len(buf))
	}
	got, err := decodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("round trip %+v != %+v", got, st)
	}
	// Corrupt magic.
	buf[0] ^= 0xFF
	if _, err := decodeMeta(buf); err == nil {
		t.Fatal("decoded page with bad magic")
	}
	if _, err := decodeMeta(buf[:4]); err == nil {
		t.Fatal("decoded truncated meta")
	}
	buf[0] ^= 0xFF
	// A page that describes no tree, or holds bytes encodeMeta would not
	// have written, is refused.
	for name, bad := range map[string]func(*metaState){
		"height 0":           func(st *metaState) { st.tree.Height = 0 },
		"invalid root":       func(st *metaState) { st.tree.Root = storage.InvalidPageID },
		"next page at root":  func(st *metaState) { st.tree.NextPID = st.tree.Root },
		"next page below it": func(st *metaState) { st.tree.NextPID = st.tree.Root - 1 },
	} {
		st := got
		bad(&st)
		if _, err := decodeMeta(encodeMeta(st, 4096)); !errors.Is(err, ErrBadMeta) {
			t.Errorf("%s: decoded (%v), want ErrBadMeta", name, err)
		}
	}
	buf[4095] = 1
	if _, err := decodeMeta(buf); !errors.Is(err, ErrBadMeta) {
		t.Errorf("non-zero padding decoded (%v), want ErrBadMeta", err)
	}
}

func TestBulkLoadLogsNothing(t *testing.T) {
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog()
	d, err := New(clock, disk, log, 128, 1, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad(2000, func(k uint64) []byte {
		return []byte(fmt.Sprintf("row-%08d", k))
	}); err != nil {
		t.Fatal(err)
	}
	if got := log.EndLSN(); got != wal.FirstLSN() {
		t.Fatalf("bulk load appended %d log bytes", got-wal.FirstLSN())
	}
}
