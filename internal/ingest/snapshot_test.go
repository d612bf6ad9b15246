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
				if err := lt.CompactShard(0); err != nil {
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
