// Concurrency stress for the session layer: 16 goroutines commit
// through tc.Session under -race, with checkpoints racing alongside,
// then the engine crashes and recovers; per-transaction atomicity must
// hold in the recovered state (no aborted or uncommitted write
// survives, committed writes do).
package tc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
)

const (
	stressClients = 16
	stressTxns    = 25
	stressRows    = 2048
	hotKeys       = 16
)

func privateBase(client int) uint64 { return uint64(1024 + client*32) }

func TestSessionConcurrentCommitAtomicityAfterCrash(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = 256
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(stressRows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("init-%06d", k))
	}); err != nil {
		t.Fatal(err)
	}

	mgr := eng.NewSessionManager(0)

	var (
		tagMu     sync.Mutex
		committed = map[string]bool{}
		aborted   = map[string]bool{}
	)
	// expectPrivate[key] = the tag of the last committed txn that wrote
	// it; private partitions are disjoint per client, so each entry is
	// only written by its owner goroutine (guarded by tagMu anyway).
	expectPrivate := map[uint64]string{}

	var wg sync.WaitGroup
	for c := 0; c < stressClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := 0; i < stressTxns; i++ {
				tag := fmt.Sprintf("c%02d-t%03d", c, i)
				priv := privateBase(c) + uint64(i%8)
				hot := uint64((c + i) % hotKeys)
				ok := false
				for attempt := 0; attempt < 8 && !ok; attempt++ {
					if err := sess.Begin(); err != nil {
						t.Errorf("begin: %v", err)
						return
					}
					err := sess.Update(1, priv, []byte(tag))
					if err == nil {
						err = sess.Update(1, hot, []byte(tag))
					}
					if err != nil {
						// Lock conflict (no-wait): roll back and retry.
						if abErr := sess.Abort(); abErr != nil {
							t.Errorf("abort: %v", abErr)
							return
						}
						time.Sleep(time.Duration(attempt+1) * 100 * time.Microsecond)
						continue
					}
					if i%7 == 3 {
						// Deliberate abort: this tag must never survive.
						if err := sess.Abort(); err != nil {
							t.Errorf("abort: %v", err)
							return
						}
						tagMu.Lock()
						aborted[tag] = true
						tagMu.Unlock()
						ok = true
						continue
					}
					if err := sess.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					tagMu.Lock()
					committed[tag] = true
					expectPrivate[priv] = tag
					tagMu.Unlock()
					ok = true
				}
			}
		}(c)
	}

	// Checkpoints race with the committing sessions.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			if err := mgr.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-ckptDone
	if t.Failed() {
		return
	}

	st := eng.Stats().WAL
	if st.Flushes == 0 {
		t.Fatal("no group-commit flushes recorded")
	}
	t.Logf("group commit: %d commits, %d flushes, %.2f records/flush, max batch %d",
		st.Commits, st.Flushes, st.RecordsPerFlush(), st.MaxBatch)

	// An uncommitted transaction in flight at the crash.
	loser := mgr.NewSession()
	if err := loser.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update(1, 500, []byte("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	eng.TC.SendEOSL() // its records reach the stable log anyway

	crash := eng.Crash()
	recovered, _, err := core.Recover(crash, core.Log2, core.DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}

	read := func(k uint64) string {
		v, found, err := recovered.DC.Tree().Search(k)
		if err != nil || !found {
			t.Fatalf("key %d lost after recovery: found=%v err=%v", k, found, err)
		}
		return string(v)
	}

	// Private keys: exactly the last committed tag (or untouched).
	for k, want := range expectPrivate {
		if got := read(k); got != want {
			t.Errorf("private key %d = %q, want %q", k, got, want)
		}
	}
	// Hot keys: some committed tag or the initial value — never an
	// aborted or uncommitted write.
	for k := uint64(0); k < hotKeys; k++ {
		got := read(k)
		if got == fmt.Sprintf("init-%06d", k) {
			continue
		}
		if aborted[got] {
			t.Errorf("hot key %d holds aborted txn's write %q", k, got)
		} else if !committed[got] {
			t.Errorf("hot key %d holds unknown/uncommitted write %q", k, got)
		}
	}
	if got := read(500); got == "UNCOMMITTED" {
		t.Error("uncommitted in-flight write survived recovery")
	}

	// The recovered engine serves new transactions.
	post := recovered.NewSessionManager(0).NewSession()
	if err := post.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := post.Update(cfg.TableID, 500, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := post.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionLockConflictIsImmediate pins the no-wait discipline: two
// sessions contending on one key see ErrLockConflict rather than
// blocking.
func TestSessionLockConflictIsImmediate(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = 64
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(128, func(k uint64) []byte { return []byte("v") }); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	a, b := mgr.NewSession(), mgr.NewSession()
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(1, 7, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(1, 7, []byte("b")); err == nil {
		t.Fatal("expected lock conflict, got nil")
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// After a commits, b can take the key.
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(1, 7, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, err := eng.DC.Read(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "b2" {
		t.Fatalf("key 7 = %q, want %q", v, "b2")
	}
}
