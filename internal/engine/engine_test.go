package engine

import (
	"fmt"
	"testing"

	"logrec/internal/wal"
)

func TestNewValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 2
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted tiny cache")
	}
	cfg = DefaultConfig()
	cfg.Disk.PageSize = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero page size")
	}
}

func TestLoadTakesInitialCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 128
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(1000, func(k uint64) []byte {
		return []byte(fmt.Sprintf("v-%06d", k))
	}); err != nil {
		t.Fatal(err)
	}
	if eng.TC.LastEndCkptLSN() == wal.NilLSN {
		t.Fatal("no checkpoint after Load")
	}
	if eng.Log.AppendCount(wal.TypeBeginCkpt) != 1 || eng.Log.AppendCount(wal.TypeEndCkpt) != 1 {
		t.Fatal("checkpoint records missing")
	}
}

func TestCrashFreezesState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 128
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(500, func(k uint64) []byte {
		return []byte(fmt.Sprintf("v-%06d", k))
	}); err != nil {
		t.Fatal(err)
	}
	txn := eng.NewSessionManager(0).NewSession()
	if err := txn.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(cfg.TableID, 1, []byte("updated-val")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Volatile tail: appended but not flushed, must not survive.
	eng.Log.MustAppend(&wal.BeginCkptRec{})

	cs := eng.Crash()
	if cs.Log.EndLSN() != cs.Log.FlushedLSN() {
		t.Fatal("crash snapshot includes volatile log tail")
	}
	if cs.LastEndCkpt == wal.NilLSN {
		t.Fatal("master record lost")
	}
	// The frozen disks reject writes.
	if _, err := cs.Disks[0].Write(5, make([]byte, cfg.Disk.PageSize)); err == nil {
		t.Fatal("frozen disk accepted a write")
	}
}

func TestForkIndependence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 128
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(500, func(k uint64) []byte {
		return []byte(fmt.Sprintf("v-%06d", k))
	}); err != nil {
		t.Fatal(err)
	}
	cs := eng.Crash()
	clock1, disks1, log1, err1 := cs.Fork(0)
	clock2, disks2, log2, err2 := cs.Fork(0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	disk1, disk2 := disks1[0], disks2[0]
	// Forks share content but not state.
	if disk1 == disk2 || log1 == log2 || clock1 == clock2 {
		t.Fatal("forks share objects")
	}
	// Writing in one fork is invisible in the other.
	if _, err := disk1.Write(5, make([]byte, cfg.Disk.PageSize)); err != nil {
		t.Fatal(err)
	}
	a, _ := disk1.Read(5)
	b, _ := disk2.Read(5)
	if string(a) == string(b) {
		t.Fatal("fork write leaked to sibling")
	}
	// Logs are independently appendable.
	l1 := log1.MustAppend(&wal.BeginCkptRec{})
	if log2.EndLSN() == log1.EndLSN() {
		t.Fatalf("log append in fork 1 (%v) affected fork 2", l1)
	}
}
