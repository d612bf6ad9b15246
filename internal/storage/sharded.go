package storage

import (
	"fmt"

	"repro/internal/activity"
)

// This file is the user-partitioned layer above the single compressed table:
// a Sharded table is N independent COHANA tables, one per user-hash
// partition. Every user's activity tuples live in exactly one shard (the
// same clustering property that keeps a user inside one chunk, lifted one
// level up), so shards build, compact and scan independently — per-shard
// work never needs a distinct-count correction, and one query's schedule
// folds chunks of every shard into the same accumulators.
//
// Each shard keeps its own global dictionaries. Cohort keys stay comparable
// across shards because the execution paths encode string cohort attributes
// by value, never by dictionary id (see cohort.Compiled.appendKey), so the
// per-shard dictionaries together behave as one table-level dictionary view:
// LookupString answers presence across all shards, and equal values compare
// byte-for-byte no matter which shard produced them.

// ShardOf routes a user to its owning shard: FNV-1a over the user id modulo
// the shard count. Every layer that partitions by user — build, ingestion
// routing, journal replay — must agree on this function.
func ShardOf(user string, shards int) int {
	if shards <= 1 {
		return 0
	}
	// hash/fnv's New64a, written out: the hash.Hash and the []byte(user) it
	// wants are two heap allocations per call, and ingestion calls per row.
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h = (h ^ uint64(user[i])) * 1099511628211
	}
	return int(h % uint64(shards))
}

// Sharded is a user-hash-partitioned COHANA table: one immutable compressed
// Table per shard, all sharing one schema.
type Sharded struct {
	schema *activity.Schema
	shards []*Table
}

// SingleShard wraps a legacy single table as a 1-shard table — the migration
// path for .cohana files written before sharding existed.
func SingleShard(t *Table) *Sharded {
	return &Sharded{schema: t.Schema(), shards: []*Table{t}}
}

// NewSharded assembles a sharded table from per-shard tables, which must all
// share one schema (structurally — see readShardedV1 for the pointer
// normalization of freshly deserialized shards). The slice is adopted, not
// copied. NewSharded never mutates the tables: it is called from concurrent
// compaction paths where other shards are being read.
func NewSharded(shards []*Table) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("storage: sharded table needs at least one shard")
	}
	schema := shards[0].Schema()
	for i, sh := range shards[1:] {
		if !schema.Equal(sh.Schema()) {
			return nil, fmt.Errorf("storage: shard %d schema differs from shard 0", i+1)
		}
	}
	return &Sharded{schema: schema, shards: shards}, nil
}

// BuildSharded compresses a sorted activity table into one table per
// user-hash partition. The shards are built together and without copying the
// table apart first: see buildShards. shards <= 1 builds a 1-shard table.
func BuildSharded(t *activity.Table, shards int, opts Options) (*Sharded, error) {
	tables, err := buildShards(t, max(shards, 1), opts)
	if err != nil {
		return nil, err
	}
	return &Sharded{schema: t.Schema(), shards: tables}, nil
}

// Schema returns the shared schema.
func (s *Sharded) Schema() *activity.Schema { return s.schema }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the i-th shard's table.
func (s *Sharded) Shard(i int) *Table { return s.shards[i] }

// Shards returns the backing shard slice. Callers must not mutate it.
func (s *Sharded) Shards() []*Table { return s.shards }

// WithShard returns a copy of the sharded table with shard i replaced — the
// swap primitive per-shard compaction uses (tables are immutable, so the
// untouched shards are shared, not copied).
func (s *Sharded) WithShard(i int, t *Table) *Sharded {
	shards := make([]*Table, len(s.shards))
	copy(shards, s.shards)
	shards[i] = t
	return &Sharded{schema: s.schema, shards: shards}
}

// NumRows returns the total tuples across shards.
func (s *Sharded) NumRows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumRows()
	}
	return n
}

// NumUsers returns the total distinct users across shards (a user lives in
// exactly one shard, so shard counts add).
func (s *Sharded) NumUsers() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumUsers()
	}
	return n
}

// NumChunks returns the total chunk count across shards.
func (s *Sharded) NumChunks() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumChunks()
	}
	return n
}

// ChunkSize returns the configured target chunk size (shared by all shards).
func (s *Sharded) ChunkSize() int { return s.shards[0].ChunkSize() }

// EncodedSize returns the total chunk segment bytes across shards — what a
// commit stores besides the manifest, and the Figure 7 storage metric for the
// whole sharded table.
func (s *Sharded) EncodedSize() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.EncodedSize()
	}
	return n
}

// Materialize decodes every shard back into one sorted activity table — the
// inverse of BuildSharded, used by load-time resharding.
func (s *Sharded) Materialize() (*activity.Table, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Materialize()
	}
	out := activity.NewTable(s.schema)
	for _, sh := range s.shards {
		part, err := sh.Materialize()
		if err != nil {
			return nil, err
		}
		out.AppendRows(part, 0, part.Len())
	}
	// Shards interleave users in global (Au, At, Ae) order, so the
	// concatenation needs one re-sort.
	if err := out.SortByPK(); err != nil {
		return nil, fmt.Errorf("storage: materialized shards conflict: %w", err)
	}
	return out, nil
}
