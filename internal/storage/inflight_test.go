package storage

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"logrec/internal/sim"
)

// scanInflight is the brute-force InflightCount the accounting replaced
// — walk every unclaimed page and ask whether its IO has completed —
// taken in one critical section with the device's own answer.
func (d *Disk) scanInflight() (scan, got int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	for _, done := range d.inflight {
		if done > now {
			scan++
		}
	}
	d.mu.Unlock()
	got = d.InflightCount() // virtual time: nothing moves between the two
	d.mu.Lock()
	return scan, got
}

func (d *FileDisk) scanInflight() (scan, got int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, io := range d.inflight {
		select {
		case <-io.done:
		default:
			scan++
		}
	}
	return scan, d.pending
}

// TestInflightCountMatchesScan drives random prefetch / read / clock
// advance / fork sequences and checks after every step that the O(1)
// in-flight accounting answers exactly what a scan of the unclaimed
// pages would: pacing (and with it every virtual time the golden tests
// pin) depends on the count, not on how it is kept.
func TestInflightCountMatchesScan(t *testing.T) {
	const pages = 96
	cfg := testConfig()
	cfg.Channels = 3 // completions out of issue order across channels

	type device interface {
		Device
		scanInflight() (scan, got int)
	}
	// wallClock is set for a device whose prefetches complete in wall
	// time, so a clock advance also sleeps a little to let some finish.
	run := func(t *testing.T, seed int64, clock *sim.Clock, d device, wallClock bool, fork func() device) {
		rng := rand.New(rand.NewSource(seed))
		check := func(step int, what string) {
			t.Helper()
			if scan, got := d.scanInflight(); scan != got {
				t.Fatalf("seed %d step %d after %s: InflightCount %d, scan says %d", seed, step, what, got, scan)
			}
		}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				pids := make([]PageID, 1+rng.Intn(12))
				base := 1 + rng.Intn(pages)
				for i := range pids {
					// Mostly contiguous (block IOs), sometimes scattered,
					// sometimes beyond what was written.
					if rng.Intn(4) == 0 {
						base = 1 + rng.Intn(pages+8)
					}
					pids[i] = PageID(base + i)
				}
				d.Prefetch(pids)
				check(step, "Prefetch")
			case op < 7:
				pid := PageID(1 + rng.Intn(pages))
				if _, err := d.Read(pid); err != nil {
					t.Fatal(err)
				}
				check(step, "Read")
			case op < 9:
				clock.Advance(sim.Duration(rng.Intn(6)) * sim.Millisecond)
				if wallClock {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
				check(step, "clock advance")
			default:
				if fork != nil {
					d = fork()
					check(step, "Fork")
				}
			}
		}
	}
	load := func(t *testing.T, d Device) {
		t.Helper()
		for pid := PageID(1); pid <= pages+1; pid++ {
			if _, err := d.Write(pid, pageData(byte(pid), cfg.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		t.Run("sim", func(t *testing.T) {
			clock := &sim.Clock{}
			d, err := New(clock, cfg)
			if err != nil {
				t.Fatal(err)
			}
			load(t, d)
			cur := d
			run(t, seed, clock, d, false, func() device {
				cur = cur.Fork(clock)
				return cur
			})
		})
		t.Run("file", func(t *testing.T) {
			clock := &sim.Clock{}
			d, err := NewFileDisk(clock, cfg, filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			load(t, d)
			run(t, seed, clock, d, true, nil)
		})
	}
}
