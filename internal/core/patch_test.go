package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/page"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// patchShapes are the ways an update can differ from the row it meets,
// one for each edge of the patch encoding: a longer row, a shorter one,
// the first byte, the last byte, nothing at all, and every byte.
var patchShapes = []func(cur []byte, tag int) []byte{
	func(cur []byte, tag int) []byte {
		return append(append([]byte(nil), cur...), fmt.Sprintf("+grown%03d", tag%1000)...)
	},
	func(cur []byte, tag int) []byte { return append([]byte(nil), cur[:len(cur)-len(cur)/3]...) },
	func(cur []byte, tag int) []byte {
		out := append([]byte(nil), cur...)
		out[0] ^= byte(1 + tag%200)
		return out
	},
	func(cur []byte, tag int) []byte {
		out := append([]byte(nil), cur...)
		out[len(out)-1] ^= byte(1 + tag%200)
		return out
	},
	func(cur []byte, tag int) []byte { return append([]byte(nil), cur...) },
	func(cur []byte, tag int) []byte {
		return []byte(fmt.Sprintf("WHOLE-%05d-rewritten-from-end-to-end", tag))
	},
}

// buildPatchCrash runs committed transactions whose updates cycle
// through patchShapes on random keys, with checkpoints, around nLosers
// transactions that never commit and each update one reserved key three
// times — grow, first byte, shrink — and a second one once, so crash
// undo must put three patches back on one row in the right order.
func buildPatchCrash(t *testing.T, cfg engine.Config, nRows, txns, nLosers int, seed int64) (*engine.CrashState, oracle) {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle, nRows)
	if err := eng.Load(nRows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	shape := 0

	reserved := make(map[uint64]bool)
	losers := make([]*tc.Session, nLosers)
	loserRow := make(map[uint64][]byte)
	loserUpdate := func(txn *tc.Session, k uint64, s int) {
		cur, ok := loserRow[k]
		if !ok {
			cur = om[k]
		}
		v := patchShapes[s](cur, int(k))
		if err := txn.Update(cfg.TableID, k, v); err != nil {
			t.Fatalf("loser update key %d shape %d: %v", k, s, err)
		}
		loserRow[k] = v
	}
	mgr := eng.NewSessionManager(0)
	for i := range losers {
		losers[i] = begin(t, mgr)
		k := uint64(i*nRows/nLosers + 7)
		reserved[k], reserved[k+1] = true, true
		loserUpdate(losers[i], k, 0)   // grow
		loserUpdate(losers[i], k+1, 5) // whole row
	}
	committed := func(n int) {
		for i := 0; i < n; i++ {
			txn := begin(t, mgr)
			staged := make(map[uint64][]byte)
			for u := 0; u < 8; u++ {
				k := uint64(rng.Intn(nRows))
				for reserved[k] {
					k = (k + 1) % uint64(nRows)
				}
				cur, ok := staged[k]
				if !ok {
					cur = om[k]
				}
				if len(cur) < 12 {
					shape = 0 // a row shrunk this far grows back
				}
				v := patchShapes[shape%len(patchShapes)](cur, i*8+u)
				shape++
				if err := txn.Update(cfg.TableID, k, v); err != nil {
					t.Fatalf("committed update key %d: %v", k, err)
				}
				staged[k] = v
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			for k, v := range staged {
				om[k] = v
			}
			if (i+1)%30 == 0 {
				if err := eng.TC.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	committed(txns / 2)
	for i, txn := range losers {
		k := uint64(i*nRows/nLosers + 7)
		loserUpdate(txn, k, 2) // first byte of the grown row
	}
	committed(txns - txns/2)
	for i, txn := range losers {
		k := uint64(i*nRows/nLosers + 7)
		loserUpdate(txn, k, 1) // shrink: its undo is structural
	}
	eng.TC.SendEOSL()
	return eng.Crash(), om
}

// TestPatchShapesCrashMatrix recovers one crash made of every patch
// shape under the five methods at the inline width and at width 2 — with
// a cache smaller than the table, so the screens skip and the skip
// audit checks each skip — and checks the committed-state oracle, the
// tree invariants, the loser count and that both widths append the
// identical CLR and abort sequence: a routed sweep compensates a key's
// three updates through the CLRs' own patches, never by reading the leaf
// its worker may be writing.
func TestPatchShapesCrashMatrix(t *testing.T) {
	const nLosers = 3
	cfg := testConfig(12)
	cs, om := buildPatchCrash(t, cfg, 2000, 150, nLosers, 29)
	auditSkips(t)
	for _, m := range Methods() {
		var inline []string
		for _, width := range []int{0, 2} {
			opt := DefaultOptions(cfg)
			opt.RedoWorkers, opt.UndoWorkers = width, width
			eng, met, err := Recover(cs, m, opt)
			if err != nil {
				t.Fatalf("%v width %d: %v", m, width, err)
			}
			verifyRecovered(t, m, eng, om)
			if met.LosersUndone != nLosers {
				t.Fatalf("%v width %d: LosersUndone = %d, want %d", m, width, met.LosersUndone, nLosers)
			}
			if want := int64(4 * nLosers); met.CLRsWritten != want {
				t.Fatalf("%v width %d: CLRsWritten = %d, want %d", m, width, met.CLRsWritten, want)
			}
			appended := appendedLog(t, eng, cs.Log.FlushedLSN())
			if width == 0 {
				inline = appended
				continue
			}
			diffLogs(t, fmt.Sprintf("%v width %d", m, width), appended, inline)
			if met.UndoBarriers == 0 || met.UndoApplied == 0 {
				t.Errorf("%v width %d: %d structural and %d routed compensations, want both", m, width, met.UndoBarriers, met.UndoApplied)
			}
		}
	}
}

// TestPatchThatDoesNotFitFailsRecovery: an update whose patch reaches
// past the row it meets is not the record that was logged against that
// row — an in-place patch whose middle starts at the row's end, and a
// length-changing one that keeps more bytes, before and after its
// middle, than the row has. Redo reports each — wal.ErrBadRecord with the LSN and the key —
// instead of writing a row.
func TestPatchThatDoesNotFitFailsRecovery(t *testing.T) {
	cfg := testConfig(200)
	const key = 123
	row := len(val(key, 0))
	for name, patch := range map[string]wal.UpdateRec{
		"in place":        {Skip: uint32(row), OldVal: []byte("a"), NewVal: []byte("b")},
		"length-changing": {Skip: uint32(row), Tail: 1, OldVal: []byte("a"), NewVal: []byte("bc")},
	} {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(500, func(k uint64) []byte { return val(k, 0) }); err != nil {
			t.Fatal(err)
		}
		pid, err := eng.DC.Tree().FindLeaf(key)
		if err != nil {
			t.Fatal(err)
		}
		patch.TxnID, patch.TableID, patch.KeyVal, patch.PageID = wal.OpensTxn, cfg.TableID, key, pid
		bad := eng.Log.MustAppend(&patch)
		eng.Log.MustAppend(&wal.CommitRec{TxnID: wal.TxnID(bad)})
		eng.TC.SendEOSL()
		cs := eng.Crash()
		for _, m := range []Method{Log0, SQL1} {
			_, _, err := Recover(cs, m, DefaultOptions(cfg))
			if !errors.Is(err, wal.ErrBadRecord) {
				t.Fatalf("%s, %v: recovery of a patch past its row: %v, want ErrBadRecord", name, m, err)
			}
			for _, want := range []string{bad.String(), fmt.Sprintf("key %d", key)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s, %v: error %q does not name %s", name, m, err, want)
				}
			}
		}
	}
}

// TestSMOImageOfAnotherGeometryFailsRecovery: an SMO image that is not
// one page long was logged under another page size (a promoted standby's
// log holds the primary's). Every method refuses it, naming the LSN and
// the page, instead of copying a truncated or under-filled page.
func TestSMOImageOfAnotherGeometryFailsRecovery(t *testing.T) {
	cfg := testConfig(200)
	for _, size := range []int{cfg.Disk.PageSize * 4, cfg.Disk.PageSize / 4} {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(500, func(k uint64) []byte { return val(k, 0) }); err != nil {
			t.Fatal(err)
		}
		pid, err := eng.DC.Tree().FindLeaf(123)
		if err != nil {
			t.Fatal(err)
		}
		m := eng.DC.Tree().Meta()
		bad := eng.Log.MustAppend(&wal.SMORec{
			Meta:   wal.TreeMeta{Root: m.Root, Height: m.Height, NextPID: m.NextPID},
			Images: []wal.PageImage{{PageID: pid, Data: make([]byte, size)}},
		})
		eng.TC.SendEOSL()
		cs := eng.Crash()
		for _, m := range Methods() {
			_, _, err := Recover(cs, m, DefaultOptions(cfg))
			if err == nil {
				t.Fatalf("%v: recovered over a %d-byte SMO image", m, size)
			}
			for _, want := range []string{bad.String(), fmt.Sprintf("page %d is %d bytes", pid, size)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%v: error %q does not name %s", m, err, want)
				}
			}
		}
	}
}

// TestSMOImageAtAFarPIDReplays: an SMO image may name any PID the log
// holds, however far past the tree's allocator — a corrupt one too.
// Every method installs it as it would a near one: the page is
// materialised from the image, and the replay allocates no more than
// for an image at the allocator's next PID, not memory in proportion
// to the PID.
func TestSMOImageAtAFarPIDReplays(t *testing.T) {
	cfg := testConfig(200)
	crash := func(pid storage.PageID) (*engine.CrashState, wal.LSN) {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(500, func(k uint64) []byte { return val(k, 0) }); err != nil {
			t.Fatal(err)
		}
		m := eng.DC.Tree().Meta()
		at := eng.Log.EndLSN()
		img := page.New(cfg.Disk.PageSize, page.TypeLeaf)
		img.SetLSN(uint64(at))
		if !eng.Log.MustAppendAt(&wal.SMORec{
			Meta:   wal.TreeMeta{Root: m.Root, Height: m.Height, NextPID: m.NextPID},
			Images: []wal.PageImage{{PageID: pid, Data: img.Bytes()}},
		}, at) {
			t.Fatal("SMO did not land at the sampled log end")
		}
		eng.TC.SendEOSL()
		return eng.Crash(), at
	}
	allocated := func(cs *engine.CrashState, m Method, pid storage.PageID, at wal.LSN) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec, _, err := Recover(cs, m, DefaultOptions(cfg))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: recovery over an SMO image of page %d: %v", m, pid, err)
		}
		if lsn, ok := rec.DC.Pool().ResidentLSN(pid); !ok || lsn != uint64(at) {
			t.Fatalf("%v: page %d after recovery: resident %v at pLSN %d, want the SMO's %v", m, pid, ok, lsn, at)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	far := storage.PageID(1 << 31)
	csFar, atFar := crash(far)
	var near storage.PageID
	{
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(500, func(k uint64) []byte { return val(k, 0) }); err != nil {
			t.Fatal(err)
		}
		near = storage.PageID(eng.DC.Tree().Meta().NextPID)
	}
	csNear, atNear := crash(near)
	for _, m := range Methods() {
		nb, fb := allocated(csNear, m, near, atNear), allocated(csFar, m, far, atFar)
		if fb > nb+1<<20 {
			t.Errorf("%v: replaying the image of page %d allocated %d B, %d B more than at page %d", m, far, fb, fb-nb, near)
		}
	}
}
