// Replica: the paper's §1.1 motivation for logical recovery beyond
// re-architecting — maintaining a replica on a *physically different*
// environment. Because the TC's log records are logical (table + key,
// no page IDs), the same record stream can be applied to a DC with a
// different page size, cache size and page layout: the replica's pages
// look nothing like the primary's, yet the logical state converges.
//
// A physiological (PID-carrying) log could never be applied here: the
// primary's page 4711 does not exist, or holds different rows, on the
// replica.
//
// This example runs the production subsystem (internal/replica): a warm
// standby continuously ships the primary's stable log, replays it by
// table and key, never by PID (core.Replayer), reports its replay lag,
// and is finally crash-promoted into a serving primary.
package main

import (
	"fmt"
	"log"
	"time"

	"logrec"
	"logrec/internal/replica"
)

func main() {
	// Primary: 4 KB pages.
	primCfg := logrec.DefaultConfig()
	primCfg.CachePages = 512
	primary, err := logrec.New(primCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Standby: 1 KB pages and a different cache size — a physically
	// non-isomorphic environment (different block size, as the paper
	// suggests for flash). Config.Standby keeps it log-silent and
	// session-less until promotion.
	replCfg := logrec.DefaultConfig()
	replCfg.Disk.PageSize = 1024
	replCfg.CachePages = 2048
	replCfg.Standby = true
	standbyEng, err := logrec.New(replCfg)
	if err != nil {
		log.Fatal(err)
	}

	const rows = 5_000
	valFn := func(k uint64) []byte { return []byte(fmt.Sprintf("row-%06d-v0", k)) }
	if err := primary.Load(rows, valFn); err != nil {
		log.Fatal(err)
	}
	if err := standbyEng.Load(rows, valFn); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary: %d pages of %dB; replica: %d pages of %dB\n",
		primary.Disk.NumPages(), primCfg.Disk.PageSize,
		standbyEng.Disk.NumPages(), replCfg.Disk.PageSize)

	// Attach the standby to the primary's log and start shipping.
	standby, err := replica.New(primary.Log, standbyEng, replica.Config{SegmentBytes: 8 << 10})
	if err != nil {
		log.Fatal(err)
	}
	standby.Start()

	// Run committed transactions on the primary while shipping is live.
	sess := primary.NewSessionManager(0).NewSession()
	for i := 0; i < 300; i++ {
		if err := sess.Begin(); err != nil {
			log.Fatal(err)
		}
		for u := 0; u < 10; u++ {
			k := uint64((i*37 + u*13) % rows)
			v := []byte(fmt.Sprintf("row-%06d-v%03d", k, i+1))
			if err := sess.Update(primCfg.TableID, k, v); err != nil {
				log.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			log.Fatal(err)
		}
	}

	if err := standby.WaitCaughtUp(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	st := standby.Stats()
	fmt.Printf("shipped %d segments (%d bytes), replayed %d records (%d row ops applied), lag %d bytes\n",
		st.Segments, st.ShippedBytes, st.Replay.Records, st.Replay.Applied, st.Lag.Bytes)

	// The primary "dies"; promote the standby. Promotion drains the
	// stable log, rolls back in-flight losers (none here) and opens the
	// engine for sessions.
	promoted, met, err := standby.Promote()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted: %d losers undone\n", met.LosersUndone)

	// The two databases live on incompatible physical layouts...
	fmt.Printf("primary root PID %d (height %d); replica root PID %d (height %d)\n",
		primary.DC.Tree().Meta().Root, primary.DC.Tree().Meta().Height,
		promoted.DC.Tree().Meta().Root, promoted.DC.Tree().Meta().Height)

	// ...but hold identical logical contents.
	mismatch := 0
	err = primary.DC.Tree().Scan(func(k uint64, v []byte) error {
		rv, found, err := promoted.DC.Tree().Search(k)
		if err != nil {
			return err
		}
		if !found || string(rv) != string(v) {
			mismatch++
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if mismatch != 0 {
		log.Fatalf("replica diverged on %d keys", mismatch)
	}
	fmt.Printf("replica verified: all %d rows identical across page sizes %dB vs %dB\n",
		rows, primCfg.Disk.PageSize, replCfg.Disk.PageSize)

	// And the promoted engine serves: one more committed transaction.
	served := promoted.NewSessionManager(0).NewSession()
	if err := served.Begin(); err != nil {
		log.Fatal(err)
	}
	if err := served.Update(replCfg.TableID, 0, []byte("served-after-failover")); err != nil {
		log.Fatal(err)
	}
	if err := served.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("promoted standby is serving transactions")
}
