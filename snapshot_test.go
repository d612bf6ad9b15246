package cohana

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/storage"
)

// TestViewsNeverSplitABatch is the query-level twin of the ingest package's
// test of the same name: every batch adds one fresh user to each shard of a
// 2-shard engine, so a cohort query run on any snapshot taken beside the
// appends counts an even number of new users.
func TestViewsNeverSplitABatch(t *testing.T) {
	eng, err := NewEngine(Generate(GenConfig{Users: 40, Seed: 3}), Options{Shards: 2, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stmt, err := eng.Prepare(`SELECT role, COHORTSIZE, UserCount() FROM D
		BIRTH FROM action = "launch" AGE ACTIVITIES IN AGE < 2 COHORT BY role`)
	if err != nil {
		t.Fatal(err)
	}
	// users sums the cohort sizes: the users born in the snapshot.
	users := func() (int64, error) {
		out, err := stmt.Run(context.Background(), eng.Snapshot(), RunOpts{})
		if err != nil {
			return 0, err
		}
		var n int64
		for _, row := range out.Cohort.Rows {
			n += row.Size
		}
		return n, nil
	}
	base, err := users()
	if err != nil {
		t.Fatal(err)
	}

	// A user without an age activity is in no result row, so each new user
	// launches and shops within its first day.
	const batches = 400
	schema := eng.Schema()
	rows := make([][]ingest.Row, batches)
	for i := range rows {
		for shard := 0; shard < 2; shard++ {
			var user string
			for k := 0; user == ""; k++ {
				if u := fmt.Sprintf("atomic-%d-%d", i, k); storage.ShardOf(u, 2) == shard {
					user = u
				}
			}
			for j, action := range []string{"launch", "shop"} {
				row, err := ingest.RowFromValues(schema, user, int64(1369000000+60*j), action, "China", "Beijing", "mage", int64(1), int64(j))
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = append(rows[i], row)
			}
		}
	}
	// Readers share each shard state's sorted delta, built by whichever
	// reader comes first; a second reader that only takes snapshots keeps
	// the deltas built, as a busy server's readers do. A query takes far
	// longer than an append, so the appender waits for the checked reader
	// to be about to take its next snapshot before each batch.
	stop, ticks, readerDone := make(chan struct{}), make(chan struct{}, 1), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				eng.Snapshot()
			}
		}
	}()
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			case ticks <- struct{}{}:
			default:
			}
			n, err := users()
			if err != nil {
				t.Error(err)
				return
			}
			if (n-base)%2 != 0 {
				t.Errorf("a snapshot holds half a batch: %d new users", n-base)
				return
			}
		}
	}()
	for _, batch := range rows {
		select {
		case <-ticks:
		case <-readerDone:
		}
		if err := eng.live.Append(batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-readerDone
	wg.Wait()
	if n, err := users(); !t.Failed() && (err != nil || n-base != 2*batches) {
		t.Fatalf("after the appends: %d new users (err %v), want %d", n-base, err, 2*batches)
	}
}
