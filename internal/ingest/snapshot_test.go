package ingest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

// userInShard returns a fresh user name, distinct per salt, that hashes to
// the given shard of an n-shard table.
func userInShard(shard, n, salt int) string {
	for k := 0; ; k++ {
		u := fmt.Sprintf("atomic-%d-%d", salt, k)
		if storage.ShardOf(u, n) == shard {
			return u
		}
	}
}

// TestViewsNeverSplitABatch pins read atomicity: a batch spanning two
// shards becomes visible on both at once. Every batch adds one fresh user's
// row to each shard of a 2-shard table, so every snapshot a reader takes
// beside the appends must hold deltas of equal length.
func TestViewsNeverSplitABatch(t *testing.T) {
	lt, err := OpenSharded(buildShardedSealed(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	const batches = 400
	rows := make([][]Row, batches)
	for i := range rows {
		for shard := 0; shard < 2; shard++ {
			rows[i] = append(rows[i], row(t, schema, userInShard(shard, 2, i), 1369000000, "launch", "China", "Beijing", "mage", 1, 0))
		}
	}
	deltaLen := func(v View) int {
		if v.Delta == nil {
			return 0
		}
		return v.Delta.Len()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			views := lt.Views()
			if a, b := deltaLen(views[0]), deltaLen(views[1]); a != b {
				t.Errorf("a snapshot holds half a batch: shard deltas of %d and %d rows", a, b)
				return
			}
		}
	}()
	for _, batch := range rows {
		if err := lt.Append(batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := lt.DeltaRows(); !t.Failed() && got != 2*batches {
		t.Fatalf("delta rows = %d, want %d", got, 2*batches)
	}
}

// TestConcurrentCompactionsOfOneShard pins the publish check that orders a
// shard's compactions: they may merge side by side, but only one publishes
// over a given sealed tier; the others start over from the published
// version, so every row is sealed exactly once.
func TestConcurrentCompactionsOfOneShard(t *testing.T) {
	sealed := buildSealed(t)
	lt, err := Open(sealed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	const rounds, compactors = 20, 4
	for r := 0; r < rounds; r++ {
		batch := []Row{row(t, schema, fmt.Sprintf("cc-%d", r), 1369000000, "launch", "China", "Beijing", "mage", 1, 0)}
		if err := lt.Append(batch); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < compactors; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := compactShard(lt, 0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	st := lt.Stats()
	if st.SealedRows != sealed.NumRows()+rounds || st.DeltaRows != 0 || st.Compactions != rounds {
		t.Fatalf("after %d rounds of %d concurrent compactions: %+v, want %d sealed rows, no delta, %d compactions",
			rounds, compactors, st, sealed.NumRows()+rounds, rounds)
	}
}

// TestUnionInputBuiltOncePerState pins that a shard's union input is derived
// once per shard state and shared: two snapshots of one version hand out the
// same *cohort.UnionDelta, and a batch routed to shard 0 alone replaces shard
// 0's union input and keeps shard 1's.
func TestUnionInputBuiltOncePerState(t *testing.T) {
	lt, err := OpenSharded(buildShardedSealed(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	schema := lt.Schema()
	var both []Row
	for shard := 0; shard < 2; shard++ {
		both = append(both, row(t, schema, userInShard(shard, 2, 0), 1369000000, "launch", "China", "Beijing", "mage", 1, 0))
	}
	if err := lt.Append(both); err != nil {
		t.Fatal(err)
	}
	first, second := lt.Views(), lt.Views()
	for i := range first {
		if first[i].Union == nil {
			t.Fatalf("shard %d: no union input for a delta of %d rows", i, first[i].Delta.Len())
		}
		if first[i].Union != second[i].Union {
			t.Fatalf("shard %d: two snapshots of one version built two union inputs", i)
		}
	}
	if err := lt.Append([]Row{row(t, schema, userInShard(0, 2, 1), 1369000000, "launch", "China", "Beijing", "mage", 1, 0)}); err != nil {
		t.Fatal(err)
	}
	next := lt.Views()
	if next[0].Union == first[0].Union {
		t.Fatal("shard 0 kept its union input across an append routed to it")
	}
	if got := next[0].Union.Table.NumRows(); got != 2 {
		t.Fatalf("shard 0 union table holds %d rows, want 2", got)
	}
	if next[1].Union != first[1].Union {
		t.Fatal("shard 1 rebuilt its union input for an append routed to shard 0 only")
	}
}
