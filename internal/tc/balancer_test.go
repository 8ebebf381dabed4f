// The auto-split policy, one window at a time: no daemon goroutine, no
// clock. shardstress_test.go races the running balancer for the
// recovery oracle and only logs when it never got to act; this test is
// the one that fails when it does not.
package tc

import (
	"fmt"
	"testing"
)

// tableRows scans the whole table through the router, failing if a key
// surfaces on two shards.
func tableRows(t *testing.T, m *SessionManager) map[uint64]string {
	t.Helper()
	rows := map[uint64]string{}
	if err := m.tc.dc.ScanAll(func(k uint64, v []byte) error {
		if _, dup := rows[k]; dup {
			return fmt.Errorf("key %d surfaced twice", k)
		}
		rows[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestBalancerSplitsAndMigratesHotRange(t *testing.T) {
	const (
		rows      = 4096 // 4 shards × 1024 keys
		hotSpan   = 256  // every hot key starts on shard 0
		perWindow = 512  // ≥ the default MinOps of 256
		windows   = 8
	)
	m := newShardedMgr(t, 4, rows)
	before := tableRows(t, m)
	b := &Balancer{mgr: m, table: 1, cfg: AutoSplitConfig{}.withDefaults()}

	// Every update rewrites the row's loaded value, so whatever the
	// balancer does to the routing, the table's contents must not move.
	sess := m.NewSession()
	for n := 0; n < windows*perWindow; n++ {
		k := uint64(n*37) % hotSpan
		if n%8 == 7 {
			k = uint64(n) * 2654435761 % rows // far key: warm load for the siblings
		}
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Update(1, k, []byte(fmt.Sprintf("init-%06d", k))); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
		if (n+1)%perWindow == 0 {
			b.window()
		}
	}

	st := b.Stats()
	t.Logf("balancer: %+v", st)
	if st.BoundarySplits < 1 || st.Migrations < 1 {
		t.Errorf("after %d windows: %d boundary splits, %d migrations (%d failed); want ≥ 1 of each",
			st.Windows, st.BoundarySplits, st.Migrations, st.FailedMigrations)
	}
	if st.LastHotShare >= st.FirstHotShare {
		t.Errorf("hot share did not drop: first %.2f, last %.2f", st.FirstHotShare, st.LastHotShare)
	}
	after := tableRows(t, m)
	if len(after) != len(before) {
		t.Fatalf("table has %d rows after balancing, %d before", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d = %q after balancing, %q before", k, after[k], v)
		}
	}
}
