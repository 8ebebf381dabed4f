package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// FuzzBootRecords is the boot path's fuzz target: the two records a
// restart reads before the log — the master record (the LSN of the last
// end-checkpoint) and a shard's boot page (its tree metadata and redo
// scan start), the latter read and rewritten through dc.Open and
// WriteBootPage. Whatever the bytes, neither may panic; a boot page is
// accepted or refused with dc.ErrBadMeta; and whatever is accepted
// encodes back to the bytes it was read from, so a boot record has one
// byte string.
func FuzzBootRecords(f *testing.F) {
	eng, err := New(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.Load(500, func(k uint64) []byte { return []byte("row") }); err != nil {
		f.Fatal(err)
	}
	if err := eng.TC.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	loaded, err := eng.DC.Disk().Read(storage.MetaPageID)
	if err != nil {
		f.Fatal(err)
	}
	master := encodeMaster(eng.TC.LastEndCkptLSN())
	f.Add(master[:], loaded)

	// A 32-byte page holding just the fields: magic, table 1, root 2,
	// height 1, next page 3, RSSP LSN 0 — and the ways to break it.
	page := func(root, height, next uint32, pad ...byte) []byte {
		b := append([]byte("LRDCMETA"), make([]byte, 24)...)
		binary.BigEndian.PutUint32(b[8:], 1)
		binary.BigEndian.PutUint32(b[12:], root)
		binary.BigEndian.PutUint32(b[16:], height)
		binary.BigEndian.PutUint32(b[20:], next)
		return append(b, pad...)
	}
	nilMaster := encodeMaster(wal.NilLSN)
	for _, boot := range [][]byte{
		page(2, 1, 3), page(2, 1, 3, 0, 0, 0, 0), page(2, 1, 3, 0, 1),
		page(2, 0, 3), page(0, 1, 3), page(5, 2, 5), page(5, 2, 4),
	} {
		f.Add(nilMaster[:], boot)
	}
	f.Add(master[:7], loaded[:31])
	f.Add(append(master[:], 0), []byte{})

	f.Fuzz(func(t *testing.T, master, boot []byte) {
		if lsn, err := decodeMaster(master); err == nil {
			if again := encodeMaster(lsn); !bytes.Equal(again[:], master) {
				t.Fatalf("master record %x decoded to %v, which encodes to %x", master, lsn, again)
			}
		} else if len(master) == 8 {
			t.Fatalf("8-byte master record %x refused: %v", master, err)
		}

		if len(boot) == 0 {
			return // a page has bytes
		}
		cfg := storage.DefaultConfig()
		cfg.PageSize = len(boot)
		clock := &sim.Clock{}
		disk, err := storage.New(clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disk.Write(storage.MetaPageID, bytes.Clone(boot)); err != nil {
			t.Fatal(err)
		}
		d, err := dc.Open(clock, disk, wal.NewLog(), 8, 0, dc.DefaultConfig())
		if err != nil {
			if !errors.Is(err, dc.ErrBadMeta) {
				t.Fatalf("boot page refused with %v, want dc.ErrBadMeta", err)
			}
			return
		}
		if err := d.WriteBootPage(); err != nil {
			t.Fatal(err)
		}
		again, err := disk.Read(storage.MetaPageID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, boot) {
			t.Fatalf("boot page %x reopened as %+v, which encodes to %x", boot, d.Tree().Meta(), again)
		}
	})
}
