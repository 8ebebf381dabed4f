package harness

import (
	"testing"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/replica"
	"logrec/internal/wal"
)

// failoverConfig is a small kill-primary experiment: the scaled crash
// harness with two shards and in-flight losers at the crash.
func failoverConfig() FailoverConfig {
	h := DefaultConfig().Scaled(40)
	h.Engine.Shards = 2
	h.Engine.KeySpan = uint64(h.Workload.Rows)
	h.OpenTxns = 2
	h.OpenTxnUpdates = 4
	return FailoverConfig{
		Harness: h,
		Replica: replica.Config{SegmentBytes: 8 << 10, CheckpointEveryRecords: 2000},
		Method:  core.Log2,
	}
}

// checkOffGeometry fails the test if the promoted standby shares the
// crashed primary's shard count or page size: the failover oracle is
// only the §1.1 claim when the two consumers of the log lay out their
// pages differently.
func checkOffGeometry(t *testing.T, res *FailoverResult) {
	t.Helper()
	p, s := res.Crash.Crash.Cfg, res.Promoted.Cfg
	if s.NumShards() == p.NumShards() || s.Disk.PageSize == p.Disk.PageSize {
		t.Fatalf("test lost its point: standby has %d shards of %d B pages, primary %d of %d B",
			s.NumShards(), s.Disk.PageSize, p.NumShards(), p.Disk.PageSize)
	}
}

// TestKillPrimaryFailover is the failover oracle: kill the primary
// mid-traffic with transactions in flight, promote the warm standby,
// and require its row state to be byte-equal (same digest) to the
// crashed primary recovered independently — two consumers of one
// logical log, on different page layouts, converging on one state.
func TestKillPrimaryFailover(t *testing.T) {
	res, err := RunFailover(failoverConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkOffGeometry(t, res)
	if res.PromotedDigest != res.RecoveredDigest {
		t.Fatalf("digest mismatch: promoted %016x, recovered %016x",
			res.PromotedDigest, res.RecoveredDigest)
	}
	if res.LosersUndone != 2 {
		t.Fatalf("promotion undid %d losers, want 2", res.LosersUndone)
	}
	if res.Ship.Replay.Records == 0 || res.Ship.Segments == 0 {
		t.Fatalf("standby shipped nothing: %+v", res.Ship)
	}
	if res.PromoteWall <= 0 {
		t.Fatalf("promote wall %v", res.PromoteWall)
	}

	// The promoted engine serves: commit a transaction against it.
	eng := res.Promoted
	txn := eng.NewSessionManager(0).NewSession()
	if err := txn.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(eng.Cfg.TableID, 1, []byte("after-failover")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestKillPrimaryFailoverHostileChannel reruns the kill-primary
// experiment with the shipping channel mangled the whole way: every
// fourth segment is duplicated and every fifth torn in half. The
// healing protocol must still deliver an exact failover. The crash's
// log is about 8 KB: 1 KiB segments make at least five of it even when
// the pump falls behind and the whole log ships in the final drain.
func TestKillPrimaryFailoverHostileChannel(t *testing.T) {
	cfg := failoverConfig()
	var n int
	cfg.Replica.SegmentBytes = 1 << 10
	cfg.Replica.Mangle = func(seg wal.Segment) []wal.Segment {
		n++
		switch {
		case n%5 == 0 && len(seg.Data) > 1:
			return []wal.Segment{{From: seg.From, Data: seg.Data[:len(seg.Data)/2]}}
		case n%4 == 0:
			return []wal.Segment{seg, seg}
		default:
			return []wal.Segment{seg}
		}
	}
	res, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOffGeometry(t, res)
	if res.Ship.HealEvents == 0 {
		t.Fatal("hostile channel produced no heal events")
	}
	if res.PromotedDigest != res.RecoveredDigest {
		t.Fatalf("digest mismatch under faults: promoted %016x, recovered %016x",
			res.PromotedDigest, res.RecoveredDigest)
	}
}

// TestKillPrimaryFailoverFile is the file-device failover: real page
// files, real WALs on both sides, a process-kill-shaped crash (handles
// closed, nothing flushed), and a standby whose shipped log is persisted
// to its own wal.log as it arrives.
func TestKillPrimaryFailoverFile(t *testing.T) {
	cfg := failoverConfig()
	cfg.Harness.Engine.Device = engine.DeviceFile
	cfg.Harness.Engine.Dir = t.TempDir()
	cfg.StandbyDir = t.TempDir()
	cfg.Method = core.SQL1
	res, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOffGeometry(t, res)
	if res.PromotedDigest != res.RecoveredDigest {
		t.Fatalf("file-device digest mismatch: promoted %016x, recovered %016x",
			res.PromotedDigest, res.RecoveredDigest)
	}
	if res.LosersUndone != 2 {
		t.Fatalf("promotion undid %d losers, want 2", res.LosersUndone)
	}
}
