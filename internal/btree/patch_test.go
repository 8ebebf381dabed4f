package btree

import (
	"bytes"
	"errors"
	"testing"

	"logrec/internal/page"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// patchLog records what a patch's logFn was asked for: how many LSNs,
// and the page and LSN of the last.
type patchLog struct {
	n   int
	pid storage.PageID
	lsn wal.LSN
}

// patchEnv loads n rows and flushes them, so any page a patch dirties
// stands out; logFn logs into rec.
func patchEnv(t *testing.T, n uint64) (e *testEnv, logFn LogFunc, rec *patchLog) {
	t.Helper()
	e = newEnv(t, 256)
	for k := uint64(0); k < n; k++ {
		if err := e.tree.Insert(k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rec = &patchLog{}
	logFn = func(pid storage.PageID) wal.LSN {
		rec.n, rec.pid, rec.lsn = rec.n+1, pid, e.lsn()
		return rec.lsn
	}
	return e, logFn, rec
}

// leafState is what a failed patch must leave alone: the image of key's
// leaf and its frame's dirty bit.
func leafState(t *testing.T, e *testEnv, key uint64) (img []byte, dirty bool) {
	t.Helper()
	pid, err := e.tree.FindLeaf(key)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Unpin(f)
	return bytes.Clone(f.Page.Bytes()), f.Dirty
}

// TestPatchLoggedFailsWritingNothing: an absent key, and a patch that
// fails, log nothing and leave the leaf's bytes — its pLSN among them —
// and its dirty bit as they were.
func TestPatchLoggedFailsWritingNothing(t *testing.T) {
	e, logFn, rec := patchEnv(t, 300)
	errRefused := errors.New("refused")
	cases := []struct {
		name    string
		key     uint64
		patch   func([]byte) ([]byte, error)
		wantErr error
	}{
		{"absent key", 1000, func(cur []byte) ([]byte, error) { return bytes.Clone(cur), nil }, ErrKeyNotFound},
		{"patch error", 150, func([]byte) ([]byte, error) { return nil, errRefused }, errRefused},
	}
	for _, tc := range cases {
		img, dirty := leafState(t, e, tc.key)
		if err := e.tree.PatchLogged(tc.key, tc.patch, logFn); !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if rec.n != 0 {
			t.Fatalf("%s: logged %d records", tc.name, rec.n)
		}
		gotImg, gotDirty := leafState(t, e, tc.key)
		if !bytes.Equal(gotImg, img) || gotDirty != dirty {
			t.Fatalf("%s: leaf changed (dirty %v → %v)", tc.name, dirty, gotDirty)
		}
	}
	if d := e.pool.DirtyCount(); d != 0 {
		t.Fatalf("%d pages dirty after failed patches", d)
	}
}

// TestPatchLoggedGrowsAcrossSplit: a patch that outgrows a full leaf
// splits it, is re-run on the row's new leaf, and is logged, stamped and
// dirtied there; the tree stays well-formed.
func TestPatchLoggedGrowsAcrossSplit(t *testing.T) {
	e, logFn, rec := patchEnv(t, 1000)
	const key = 500
	before, err := e.tree.FindLeaf(key)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	grow := func(cur []byte) ([]byte, error) {
		calls++
		return append(bytes.Clone(cur), bytes.Repeat([]byte{'+'}, page.MaxValueLen(storage.DefaultConfig().PageSize)*3/4)...), nil
	}
	if err := e.tree.PatchLogged(key, grow, logFn); err != nil {
		t.Fatal(err)
	}
	if e.log.AppendCount(wal.TypeSMO) == 0 || calls < 2 {
		t.Fatalf("the patch did not split its leaf: %d SMOs, patch run %d times", e.log.AppendCount(wal.TypeSMO), calls)
	}
	owner, err := e.tree.FindLeaf(key)
	if err != nil {
		t.Fatal(err)
	}
	if rec.n != 1 || rec.pid != owner || owner == before {
		t.Fatalf("logged %d records, the last on page %d; want one, on the key's new leaf %d (was %d)", rec.n, rec.pid, owner, before)
	}
	f, err := e.pool.Get(owner)
	if err != nil {
		t.Fatal(err)
	}
	lsn, dirty := f.Page.LSN(), f.Dirty
	e.pool.Unpin(f)
	if !dirty || lsn != uint64(rec.lsn) {
		t.Fatalf("owner page %d: dirty %v, pLSN %d; want dirty at %d", owner, dirty, lsn, rec.lsn)
	}
	got, found, err := e.tree.Search(key)
	if err != nil || !found || !bytes.HasPrefix(got, val(key)) || len(got) <= len(val(key)) {
		t.Fatalf("patched row: found=%v err=%v len=%d", found, err, len(got))
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
