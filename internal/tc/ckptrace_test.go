package tc_test

import (
	"sync"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/tc"
)

// TestCommitRacingCheckpointIsNotUndone parks a committer between its
// commit record's append and its removal from the active table, and
// runs a checkpoint meanwhile. A checkpoint that finished there would
// list the committed transaction as active in its end record while the
// commit record lies below its begin record: recovery would never scan
// the commit, seed the transaction as a loser and roll back a change
// the client was told is durable. Every method must keep the row, with
// no loser undone.
func TestCommitRacingCheckpointIsNotUndone(t *testing.T) {
	const key = 7
	cfg := engine.DefaultConfig()
	cfg.CachePages = 64
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(64, func(uint64) []byte { return []byte("old") }); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tc.SetEndAppendedHook(eng.TC, func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	})
	s := mgr.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(cfg.TableID, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	<-parked

	ckpt := make(chan error, 1)
	go func() { ckpt <- mgr.Checkpoint() }()
	var ckptErr error
	ckptDone := false
	select {
	case ckptErr = <-ckpt:
		ckptDone = true // the checkpoint ran to its end record past the committer
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if !ckptDone {
		ckptErr = <-ckpt
	}
	if ckptErr != nil {
		t.Fatal(ckptErr)
	}
	eng.TC.SendEOSL()
	crash := eng.Crash()

	for _, m := range core.Methods() {
		rec, met, err := core.Recover(crash, m, core.DefaultOptions(cfg))
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		v, found, err := rec.DC.Tree().Search(key)
		if err != nil || !found {
			t.Fatalf("%v: key %d lost: found=%v err=%v", m, key, found, err)
		}
		if string(v) != "new" {
			t.Errorf("%v: key %d = %q, its committer was told %q is durable", m, key, v, "new")
		}
		if met.LosersUndone != 0 {
			t.Errorf("%v: %d losers undone, want 0", m, met.LosersUndone)
		}
	}
}
