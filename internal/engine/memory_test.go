package engine

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestBookkeepingPerResidentPageIsBounded: after a bulk load that
// leaves every page cached, the live heap is the page images plus at
// most bookkeepingPerPage bytes for each page — its frame, its pool and
// device table slots, and its share of the engine's fixed structures
// (the log's tail among them). A hash map per PID, a list element per
// clock-ring entry, a page view allocated apart from its frame or a log
// segment reserved before it is written each take this past the bound.
func TestBookkeepingPerResidentPageIsBounded(t *testing.T) {
	const (
		rows               = 400_000
		rowBytes           = 69
		bookkeepingPerPage = 160
	)
	if testing.Short() {
		t.Skip("loads 400,000 rows")
	}
	cfg := DefaultConfig()
	cfg.CachePages = 16_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, func(k uint64) []byte {
		v := make([]byte, rowBytes)
		binary.BigEndian.PutUint64(v, k)
		return v
	}); err != nil {
		t.Fatal(err)
	}
	after := heap()
	pages := eng.Disk.NumPages()
	if ev := eng.DC.Pool().Stats().Evictions; ev != 0 {
		t.Fatalf("the load of %d pages evicted %d with %d frames: the test wants every page cached", pages, ev, cfg.CachePages)
	}
	images := uint64(pages * cfg.Disk.PageSize)
	if after < before+images {
		t.Fatalf("heap grew %d B over a load of %d pages of %d B", after-before, pages, cfg.Disk.PageSize)
	}
	perPage := float64(after-before-images) / float64(pages)
	t.Logf("%d pages: %.0f B of bookkeeping per page", pages, perPage)
	if perPage > bookkeepingPerPage {
		t.Errorf("%d resident pages cost %.0f B of bookkeeping each beyond their images, want at most %d", pages, perPage, bookkeepingPerPage)
	}
	runtime.KeepAlive(eng)
}
