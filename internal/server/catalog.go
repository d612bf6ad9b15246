// Package server is COHANA's HTTP serving subsystem: a table catalog that
// lazily loads compressed .cohana tables from a data directory and wraps
// each in a live ingest table (delta store + journal + background
// compaction), an LRU result cache keyed on (table, generation, normalized
// query text) and invalidated whenever a table changes, and handlers that
// fan each query out over sealed chunks through a bounded worker pool shared
// by all in-flight requests while unioning in the uncompressed delta tier.
// Sealed tables, delta snapshots and compiled queries are all immutable,
// which is what makes a view safe to serve to any number of concurrent
// queries without locking on the read path.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TableExt is the file extension the catalog serves from its data
// directory; a file games.cohana is served as table "games".
const TableExt = ".cohana"

// JournalExt is the extension of the per-table append journal kept next to
// the .cohana file; a file games.journal holds the un-compacted appends of
// table "games".
const JournalExt = ".journal"

// Catalog maps table names to lazily-loaded live tables. Loading is
// single-flight per table: concurrent first requests for one table block on
// one disk read instead of each deserializing their own copy.
type Catalog struct {
	dir string
	// compactRows is the per-shard auto-compaction threshold in delta rows;
	// <= 0 disables automatic compaction.
	compactRows int
	// shards is the target shard count for loaded tables; 0 keeps each
	// file's stored count.
	shards int
	// planCacheSize is the per-table compiled-plan cache capacity; 0 selects
	// plan.DefaultCacheSize, negative disables plan caching.
	planCacheSize int
	// chunkCache is the decoded-chunk cache shared by every lazily loaded
	// table of this catalog (entries are keyed by segment content hash, so
	// tables never collide).
	chunkCache *storage.ChunkCache
	// onChange, when non-nil, is called with the table name after every
	// append and compaction (the server invalidates its result cache here).
	onChange func(table string)

	mu      sync.Mutex
	entries map[string]*catalogEntry
}

type catalogEntry struct {
	mu   sync.Mutex
	live *ingest.Table
	// planCache holds this incarnation's compiled plans. It is created fresh
	// by every loadLocked, so a reload invalidates all plans wholesale (the
	// schema may have changed on disk); compactions need no invalidation here
	// because each plan re-binds changed shards by sealed-tier identity.
	planCache *plan.Cache
	// nextGen is the generation watermark for the next incarnation, kept on
	// the entry so it survives a failed reload: generations must never
	// restart while old cached results for this table may still exist.
	nextGen   uint64
	fileBytes int64
	loadedAt  time.Time
	// persistMu guards persist, the cumulative commit stats of this table's
	// incremental persistence — written from compaction goroutines (the
	// Persist hook), read by Info, so it cannot ride under mu.
	persistMu sync.Mutex
	persist   storage.CommitStats
}

// recordPersist folds one commit's stats into the entry.
func (e *catalogEntry) recordPersist(st storage.CommitStats) {
	e.persistMu.Lock()
	e.persist.Add(st)
	e.persistMu.Unlock()
}

// persistStats snapshots the cumulative commit stats.
func (e *catalogEntry) persistStats() storage.CommitStats {
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	return e.persist
}

// TableInfo describes one catalog table for the listing endpoints.
type TableInfo struct {
	Name       string    `json:"name"`
	Loaded     bool      `json:"loaded"`
	Generation uint64    `json:"generation,omitempty"`
	Rows       int       `json:"rows,omitempty"`
	Users      int       `json:"users,omitempty"`
	Chunks     int       `json:"chunks,omitempty"`
	ChunkSize  int       `json:"chunkSize,omitempty"`
	FileBytes  int64     `json:"fileBytes,omitempty"`
	LoadedAt   time.Time `json:"loadedAt,omitzero"`
	Columns    []ColInfo `json:"columns,omitempty"`
	// Live-ingestion state: rows awaiting compaction, compactions run, the
	// journal size backing the delta's durability, and the most recent
	// compaction failure (empty after a success).
	DeltaRows    int    `json:"deltaRows,omitempty"`
	Compactions  uint64 `json:"compactions,omitempty"`
	JournalBytes int64  `json:"journalBytes,omitempty"`
	CompactError string `json:"compactError,omitempty"`
	// Chunk-granular compaction and incremental persistence counters: chunks
	// re-encoded vs carried over untouched across all compactions, and what
	// the manifest commits actually wrote vs reused on disk.
	ChunksRebuilt   uint64 `json:"chunksRebuilt,omitempty"`
	ChunksReused    uint64 `json:"chunksReused,omitempty"`
	PersistBytes    int64  `json:"persistBytes,omitempty"`
	SegmentsWritten int    `json:"segmentsWritten,omitempty"`
	SegmentsReused  int    `json:"segmentsReused,omitempty"`
	// Shards is the table's user-hash partition count; PerShard the
	// per-shard ingestion breakdown (present for multi-shard tables).
	Shards   int                 `json:"shards,omitempty"`
	PerShard []ingest.ShardStats `json:"perShard,omitempty"`
}

// ColInfo is one schema column of a loaded table.
type ColInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Kind string `json:"kind"`
}

// CatalogConfig parameterizes a catalog.
type CatalogConfig struct {
	// CompactRows is the per-shard delta row count that triggers background
	// compaction; 0 selects ingest.DefaultAutoCompactRows, negative
	// disables automatic compaction.
	CompactRows int
	// Shards is the target shard count for loaded tables: a table stored
	// with a different count is resharded at load and the new layout
	// persisted. 0 keeps each file's stored count.
	Shards int
	// PlanCacheSize is each table's compiled-plan cache capacity in plans;
	// 0 selects plan.DefaultCacheSize, negative disables plan caching.
	PlanCacheSize int
	// ChunkCacheBytes budgets the catalog's decoded-chunk cache: tables load
	// lazily (manifest only) and chunk payloads decode on first touch, with
	// least-recently-used payloads evicted once resident bytes exceed the
	// budget. <= 0 means unbounded (still lazy).
	ChunkCacheBytes int64
	// OnChange is called with the table name after every append and
	// compaction.
	OnChange func(table string)
}

// NewCatalogWith serves tables from dir with the given ingestion settings;
// the zero CatalogConfig selects the defaults. The directory is scanned on
// demand, so tables dropped into it after startup are picked up without a
// restart.
func NewCatalogWith(dir string, cfg CatalogConfig) *Catalog {
	compact := cfg.CompactRows
	switch {
	case compact == 0:
		compact = ingest.DefaultAutoCompactRows
	case compact < 0:
		compact = 0
	}
	return &Catalog{
		dir:           dir,
		compactRows:   compact,
		shards:        cfg.Shards,
		planCacheSize: cfg.PlanCacheSize,
		chunkCache:    storage.NewChunkCache(cfg.ChunkCacheBytes),
		onChange:      cfg.OnChange,
		entries:       make(map[string]*catalogEntry),
	}
}

// ChunkCacheStats snapshots the catalog's decoded-chunk cache counters for
// the stats endpoint.
func (c *Catalog) ChunkCacheStats() storage.ChunkCacheStats {
	return c.chunkCache.Stats()
}

// ErrUnknownTable marks lookups of tables with no backing file, so handlers
// can answer 404 instead of 500.
type ErrUnknownTable struct{ Name string }

func (e ErrUnknownTable) Error() string {
	return fmt.Sprintf("unknown table %q (no %s%s in data directory)", e.Name, e.Name, TableExt)
}

// ErrCorruptTable marks a table file that exists but cannot be decoded
// (corrupt or truncated), naming the file so operators know what to fix.
type ErrCorruptTable struct {
	Name string
	File string // file basename inside the data directory
	Err  error
}

func (e ErrCorruptTable) Error() string {
	return fmt.Sprintf("table %q: corrupt or truncated file %s: %v", e.Name, e.File, e.Err)
}

func (e ErrCorruptTable) Unwrap() error { return e.Err }

// validName rejects names that could escape the data directory or collide
// with path syntax. Table names are file basenames without the extension.
func validName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\")
}

func (c *Catalog) path(name string) string {
	return filepath.Join(c.dir, name+TableExt)
}

func (c *Catalog) journalPath(name string) string {
	return filepath.Join(c.dir, name+JournalExt)
}

func (c *Catalog) entry(name string) *catalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		e = &catalogEntry{}
		c.entries[name] = e
	}
	return e
}

// Get returns the live table, loading it on first use, together with the
// incarnation's compiled-plan cache. Table and plan cache are taken under
// one lock, so they always belong to the same incarnation.
func (c *Catalog) Get(name string) (*ingest.Table, *plan.Cache, error) {
	if !validName(name) {
		return nil, nil, ErrUnknownTable{Name: name}
	}
	e := c.entry(name)
	e.mu.Lock()
	if e.live == nil {
		if err := c.loadLocked(name, e); err != nil {
			e.mu.Unlock()
			c.dropIfEmpty(name, e)
			return nil, nil, err
		}
	}
	live, plans := e.live, e.planCache
	e.mu.Unlock()
	return live, plans, nil
}

// dropIfEmpty removes a never-loaded entry from the map, so queries against
// nonexistent table names cannot grow c.entries without bound.
func (c *Catalog) dropIfEmpty(name string, e *catalogEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.entries[name] == e && e.live == nil && e.nextGen == 0 {
		delete(c.entries, name)
	}
}

// Reload re-reads the table from disk, replaying the journal, replacing the
// shared live table and continuing its generation at the old one + 1.
// In-flight queries keep using the views they already hold — old
// generations stay valid, they just stop being served from the catalog or
// the cache.
func (c *Catalog) Reload(name string) (*ingest.Table, error) {
	if !validName(name) {
		return nil, ErrUnknownTable{Name: name}
	}
	e := c.entry(name)
	e.mu.Lock()
	if err := c.loadLocked(name, e); err != nil {
		e.mu.Unlock()
		c.dropIfEmpty(name, e)
		return nil, err
	}
	live := e.live
	e.mu.Unlock()
	return live, nil
}

// PlanCacheStats sums the compiled-plan cache counters across every loaded
// table incarnation for the stats endpoint. Capacity reports the per-table
// setting, not a sum.
func (c *Catalog) PlanCacheStats() plan.CacheStats {
	c.mu.Lock()
	entries := make([]*catalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	var agg plan.CacheStats
	for _, e := range entries {
		e.mu.Lock()
		pc := e.planCache
		e.mu.Unlock()
		if pc == nil {
			continue
		}
		st := pc.Stats()
		agg.Capacity = st.Capacity
		agg.Entries += st.Entries
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Rebinds += st.Rebinds
		agg.Evictions += st.Evictions
	}
	return agg
}

// loadLocked reads and deserializes the table file and wraps it in a live
// ingest table, replaying the journal; e.mu must be held. A previous
// incarnation is closed, and the new one continues its generation sequence
// so stale cache entries can never collide with fresh ones.
func (c *Catalog) loadLocked(name string, e *catalogEntry) error {
	// Close the previous incarnation BEFORE reading the file: Close waits
	// out in-flight appends and gates compactions (the closed re-check
	// before swap/rewrite), so once it returns the .cohana file and journal
	// are quiescent. Reading first could capture pre-compaction bytes and
	// then replay the post-compaction (truncated) journal — acknowledged
	// rows would vanish from view until the next reload. Closing first also
	// pins the generation watermark: no bump can race us into handing the
	// new incarnation a generation an old cached result was stored under.
	if e.live != nil {
		old := e.live
		e.live = nil
		_ = old.Close()
		e.nextGen = old.Gen() + 1
	}
	path := c.path(name)
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ErrUnknownTable{Name: name}
		}
		return err
	}
	// ReadShardedWith accepts both layouts: a legacy single-table .cohana
	// file loads transparently as a 1-shard table, a shard manifest loads
	// lazily — only the manifest is read here, chunk payloads decode on
	// first touch through the catalog's chunk cache. When the configured
	// shard count differs from the stored one, ingest reshards at open and
	// persists the new layout — the migration path from legacy files to
	// sharded tables.
	tbl, err := storage.ReadShardedWith(path, storage.ReadOptions{Lazy: true, Cache: c.chunkCache})
	if err != nil {
		return ErrCorruptTable{Name: name, File: filepath.Base(path), Err: err}
	}
	live, err := ingest.OpenSharded(tbl, ingest.Config{
		JournalPath:     c.journalPath(name),
		AutoCompactRows: c.compactRows,
		Shards:          c.shards,
		InitialGen:      e.nextGen,
		// The commit is incremental by construction: only chunk segments the
		// compaction actually produced (plus the manifest) hit the disk; the
		// stats record exactly how many bytes each compaction persisted.
		Persist: func(d storage.LayoutDelta) error {
			st, err := storage.CommitSharded(path, d.Layout)
			if err == nil {
				e.recordPersist(st)
			}
			return err
		},
		OnChange: func() {
			if c.onChange != nil {
				c.onChange(name)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("loading table %q: %w", name, err)
	}
	e.live = live
	e.planCache = plan.NewCache(c.planCacheSize)
	e.fileBytes = fi.Size()
	e.loadedAt = time.Now().UTC()
	return nil
}

// Info describes one table without forcing a load.
func (c *Catalog) Info(name string) (TableInfo, error) {
	if !validName(name) {
		return TableInfo{}, ErrUnknownTable{Name: name}
	}
	if _, err := os.Stat(c.path(name)); err != nil {
		if os.IsNotExist(err) {
			return TableInfo{}, ErrUnknownTable{Name: name}
		}
		return TableInfo{}, err
	}
	info := TableInfo{Name: name}
	e := c.entry(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live == nil {
		return info, nil
	}
	st := e.live.Stats()
	info.Loaded = true
	info.Generation = st.Generation
	info.Rows = st.SealedRows
	info.Users = st.SealedUsers
	info.Chunks = st.SealedChunks
	info.ChunkSize = e.live.ChunkSize()
	info.FileBytes = e.fileBytes
	info.LoadedAt = e.loadedAt
	info.DeltaRows = st.DeltaRows
	info.Compactions = st.Compactions
	info.JournalBytes = st.JournalBytes
	info.CompactError = st.LastCompactError
	info.ChunksRebuilt = st.ChunksRebuilt
	info.ChunksReused = st.ChunksReused
	ps := e.persistStats()
	info.PersistBytes = ps.BytesWritten
	info.SegmentsWritten = ps.SegmentsWritten
	info.SegmentsReused = ps.SegmentsReused
	info.Shards = st.Shards
	info.PerShard = st.PerShard
	schema := e.live.Schema()
	for i := 0; i < schema.NumCols(); i++ {
		col := schema.Col(i)
		info.Columns = append(info.Columns, ColInfo{
			Name: col.Name,
			Type: col.Type.String(),
			Kind: col.Kind.String(),
		})
	}
	return info, nil
}

// List scans the data directory and describes every table file, loaded or
// not, sorted by name.
func (c *Catalog) List() ([]TableInfo, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []TableInfo
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), TableExt) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), TableExt)
		if !validName(name) {
			continue
		}
		info, err := c.Info(name)
		if err != nil {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// IngestTotals aggregates the live-ingestion counters across loaded tables
// for the stats endpoint.
type IngestTotals struct {
	LoadedTables      int    `json:"loadedTables"`
	Shards            int    `json:"shards"`
	DeltaRows         int    `json:"deltaRows"`
	Appends           uint64 `json:"appends"`
	AppendedRows      uint64 `json:"appendedRows"`
	Compactions       uint64 `json:"compactions"`
	ReplayedRows      uint64 `json:"replayedRows"`
	ReplayDroppedRows uint64 `json:"replayDroppedRows"`
	JournalBytes      int64  `json:"journalBytes"`
	// Chunk-granular compaction / incremental persistence aggregates: chunks
	// re-encoded vs left untouched by compactions, and the bytes the manifest
	// commits actually wrote.
	ChunksRebuilt   uint64 `json:"chunksRebuilt"`
	ChunksReused    uint64 `json:"chunksReused"`
	PersistBytes    int64  `json:"persistBytes"`
	SegmentsWritten int    `json:"segmentsWritten"`
	SegmentsReused  int    `json:"segmentsReused"`
}

// TableShards is one loaded table's per-shard ingestion breakdown for the
// stats endpoint.
type TableShards struct {
	Table      string              `json:"table"`
	Shards     int                 `json:"shards"`
	Generation uint64              `json:"generation"`
	DeltaRows  int                 `json:"deltaRows"`
	SealedRows int                 `json:"sealedRows"`
	PerShard   []ingest.ShardStats `json:"perShard,omitempty"`
}

// IngestSnapshot walks every loaded table once — each walk takes the
// table's journal lock, so the stats endpoint must not repeat it — and
// returns both the across-table aggregate and the per-table shard
// breakdown, sorted by name.
func (c *Catalog) IngestSnapshot() (IngestTotals, []TableShards) {
	c.mu.Lock()
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	var agg IngestTotals
	var tables []TableShards
	for _, name := range names {
		e := c.entry(name)
		e.mu.Lock()
		live := e.live
		e.mu.Unlock()
		if live == nil {
			continue
		}
		st := live.Stats()
		agg.LoadedTables++
		agg.Shards += st.Shards
		agg.DeltaRows += st.DeltaRows
		agg.Appends += st.Appends
		agg.AppendedRows += st.AppendedRows
		agg.Compactions += st.Compactions
		agg.ReplayedRows += st.ReplayedRows
		agg.ReplayDroppedRows += st.ReplayDroppedRows
		agg.JournalBytes += st.JournalBytes
		agg.ChunksRebuilt += st.ChunksRebuilt
		agg.ChunksReused += st.ChunksReused
		ps := e.persistStats()
		agg.PersistBytes += ps.BytesWritten
		agg.SegmentsWritten += ps.SegmentsWritten
		agg.SegmentsReused += ps.SegmentsReused
		tables = append(tables, TableShards{
			Table:      name,
			Shards:     st.Shards,
			Generation: st.Generation,
			DeltaRows:  st.DeltaRows,
			SealedRows: st.SealedRows,
			PerShard:   st.PerShard,
		})
	}
	return agg, tables
}

// Close closes every loaded table, waiting out background compactions and
// releasing journal files. The catalog is not usable afterwards.
func (c *Catalog) Close() {
	c.mu.Lock()
	entries := make([]*catalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.live != nil {
			_ = e.live.Close()
			e.live = nil
		}
		e.mu.Unlock()
	}
}
