package storage

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/activity"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// On-disk layout of a sharded table: a manifest at the table path plus one
// *chunk segment* file per chunk next to it. The manifest (shardMagicV2 +
// JSON) records the schema, the chunk size, and per shard the ordered chunk
// list — each entry naming its segment file and carrying the chunk's row /
// user counts and user range:
//
//	game.cohana                          manifest (COHANAS2 + JSON)
//	game.cohana.g1f0c593e48a7b21dc2fe09adaaebe21e.cohseg one chunk, self-contained
//	game.cohana.g88ab01c2deadbeefed8d17690fa4b136.cohseg another chunk, ...
//
// Segment files are named by the content hash of their bytes. Content
// addressing is what makes WriteShardedFile a *manifest commit*: a chunk the
// compactor carried over unchanged hashes to a name that already exists on
// disk, so only new or changed chunks produce writes — write amplification is
// proportional to the touched chunks, not the table. A hash-named file is
// never rewritten with different content, so a concurrent reader holding an
// old manifest can never see a segment change under it; the manifest rename
// is the commit point, and segments no new manifest references are swept
// afterwards (best effort — a leaked segment is garbage, never corruption).
//
// Manifest v3 extends v2 with everything a *lazy* open needs to plan and
// prune without reading a single segment: per-shard complete dictionaries for
// the non-user string columns plus global int ranges, and per-chunk segment
// byte sizes and column stats (sorted present-value lists for small string
// columns, exact [min, max] for int columns). The shard dictionaries are
// provably complete — a shard's dictionary is always exactly the value set of
// its rows, both at build time and through grown-dictionary merges — so
// LookupString on a lazy table is exact, not approximate.
//
// Older layouts load transparently and upgrade to v3 on their next persist: a
// COHANAS2 chunk-granular manifest, a COHANAS1 manifest (one whole-shard
// legacy segment per shard) and a bare legacy single-table .cohana file,
// which loads as one shard. Lazy opening needs v3 stats; older layouts fall
// back to an eager open.

// shardMagic identifies a v1 shard manifest — read-only since manifest v2. It
// is deliberately the same length as the legacy table magic so readers can
// distinguish the layouts from one fixed-size prefix.
const shardMagic = "COHANAS1"

// shardMagicV2 identifies a v2 (chunk-granular) shard manifest — read-only
// since manifest v3.
const shardMagicV2 = "COHANAS2"

// shardMagicV3 identifies a v3 (chunk-granular, lazy-openable) shard manifest.
const shardMagicV3 = "COHANAS3"

// SegmentExt is the file extension of segment files. The serving catalog
// lists only .cohana files, so segments never appear as tables.
const SegmentExt = ".cohseg"

// manifestJSON is the v1 manifest body following shardMagic: the per-shard
// segment file basenames, resolved relative to the manifest's directory.
type manifestJSON struct {
	Version  int      `json:"version"`
	Segments []string `json:"segments"`
}

// manifestChunkJSON is one chunk entry of a v2 manifest: its segment file
// plus the per-chunk stats the planner and operators read without opening the
// segment.
type manifestChunkJSON struct {
	File    string `json:"file"`
	Rows    int    `json:"rows"`
	Users   int    `json:"users"`
	MinUser string `json:"minUser"`
	MaxUser string `json:"maxUser"`
}

// manifestShardJSON is one shard's ordered chunk list.
type manifestShardJSON struct {
	Chunks []manifestChunkJSON `json:"chunks"`
}

// manifestV2JSON is the v2 manifest body following shardMagicV2.
type manifestV2JSON struct {
	// Version counts commits at this path, for operators diffing layouts; it
	// is not part of segment naming.
	Version   int                 `json:"version"`
	Schema    schemaJSON          `json:"schema"`
	ChunkSize int                 `json:"chunkSize"`
	Shards    []manifestShardJSON `json:"shards"`
}

// manifestColStatsJSON carries one column's per-chunk stats in a v3 manifest.
// String columns list the sorted global-ids present in the chunk (indexes
// into the shard's manifest dictionary), omitted when the chunk's cardinality
// exceeded chunkStatsCap; integer columns carry their exact range.
type manifestColStatsJSON struct {
	Values []uint64 `json:"values,omitempty"`
	Min    *int64   `json:"min,omitempty"`
	Max    *int64   `json:"max,omitempty"`
}

// manifestChunkV3JSON is one chunk entry of a v3 manifest.
type manifestChunkV3JSON struct {
	File    string                 `json:"file"`
	Rows    int                    `json:"rows"`
	Users   int                    `json:"users"`
	MinUser string                 `json:"minUser"`
	MaxUser string                 `json:"maxUser"`
	Bytes   int64                  `json:"bytes"`
	Cols    []manifestColStatsJSON `json:"cols"`
}

// manifestShardV3JSON is one shard's ordered chunk list plus the shard-level
// metadata a lazy open binds without touching segments: complete dictionaries
// for non-user string columns (nil entries for the user and int columns) and
// global int ranges.
type manifestShardV3JSON struct {
	Chunks []manifestChunkV3JSON `json:"chunks"`
	Dicts  [][]string            `json:"dicts"`
	IntMin []int64               `json:"intMin"`
	IntMax []int64               `json:"intMax"`
}

// manifestV3JSON is the v3 manifest body following shardMagicV3.
type manifestV3JSON struct {
	Version   int                   `json:"version"`
	Schema    schemaJSON            `json:"schema"`
	ChunkSize int                   `json:"chunkSize"`
	Shards    []manifestShardV3JSON `json:"shards"`
}

// CommitStats reports what one manifest commit actually wrote.
type CommitStats struct {
	// SegmentsWritten / SegmentsReused count chunk segment files newly
	// written vs already on disk from a previous commit.
	SegmentsWritten int `json:"segmentsWritten"`
	SegmentsReused  int `json:"segmentsReused"`
	// BytesWritten is the total bytes persisted by the commit, segments plus
	// manifest.
	BytesWritten int64 `json:"bytesWritten"`
}

// Add accumulates o into s.
func (s *CommitStats) Add(o CommitStats) {
	s.SegmentsWritten += o.SegmentsWritten
	s.SegmentsReused += o.SegmentsReused
	s.BytesWritten += o.BytesWritten
}

// ReadOptions configures how a sharded table is opened.
type ReadOptions struct {
	// Lazy opens the table O(manifest): chunk payloads stay cold until a
	// scan pins them. Requires a v3 manifest; older layouts silently fall
	// back to an eager open (their next commit upgrades them).
	Lazy bool
	// Cache is the chunk cache backing lazy loads; nil uses the shared
	// process-wide DefaultChunkCache.
	Cache *ChunkCache
}

// ReadSharded loads a sharded table from path eagerly: a v3 or v2
// chunk-granular manifest, a v1 per-shard manifest, or a legacy single-table
// file wrapped as one shard.
func ReadSharded(path string) (*Sharded, error) {
	return ReadShardedWith(path, ReadOptions{})
}

// ReadShardedWith loads a sharded table from path with explicit open options.
func ReadShardedWith(path string, opts ReadOptions) (*Sharded, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head := ""
	if len(buf) >= len(shardMagic) {
		head = string(buf[:len(shardMagic)])
	}
	switch head {
	case shardMagicV3:
		return readShardedV3(path, buf[len(shardMagicV3):], opts)
	case shardMagicV2:
		return readShardedV2(path, buf[len(shardMagicV2):])
	case shardMagic:
		return readShardedV1(path, buf[len(shardMagic):])
	default:
		st, err := Deserialize(buf)
		if err != nil {
			return nil, err
		}
		return SingleShard(st), nil
	}
}

// readShardedV2 loads a v2 manifest: every shard's chunk segments are read
// and decoded concurrently, then each shard assembles its global
// dictionaries from the per-chunk values.
func readShardedV2(path string, body []byte) (*Sharded, error) {
	var m manifestV2JSON
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("storage: bad shard manifest %s: %w", path, err)
	}
	schema, err := schemaFromJSON(m.Schema)
	if err != nil {
		return nil, fmt.Errorf("storage: shard manifest %s: %w", path, err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("storage: shard manifest %s names no shards", path)
	}
	if m.ChunkSize <= 0 {
		return nil, fmt.Errorf("storage: shard manifest %s: bad chunk size %d", path, m.ChunkSize)
	}
	dir := filepath.Dir(path)
	tables := make([]*Table, len(m.Shards))
	errs := make([]error, len(m.Shards))
	var wg sync.WaitGroup
	for si, sh := range m.Shards {
		for _, c := range sh.Chunks {
			if c.File != filepath.Base(c.File) || c.File == "" {
				return nil, fmt.Errorf("storage: shard manifest %s: segment name %q must be a bare file name", path, c.File)
			}
		}
		files := make([]string, len(sh.Chunks))
		for ci, c := range sh.Chunks {
			files[ci] = c.File
		}
		wg.Add(1)
		//lint:allow goroutinepool load fan-out bounded by the shard count and joined below; storage sits under the cohort pool layer (import cycle)
		go func(si int, files []string) {
			defer wg.Done()
			tables[si], errs[si] = readShardEager(dir, path, schema, m.ChunkSize, files)
		}(si, files)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", si, err)
		}
	}
	return NewSharded(tables)
}

// readShardEager reads and decodes one shard's chunk segment files and
// assembles them into an eager table — shared by the v2 and v3 eager paths.
func readShardEager(dir, path string, schema *activity.Schema, chunkSize int, files []string) (*Table, error) {
	segs := make([]*segChunk, len(files))
	hashes := make([]string, len(files))
	for ci, f := range files {
		buf, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		obs.SegmentReadsTotal.Inc()
		segs[ci] = new(segChunk)
		if err = decodeChunkSegment(segs[ci], buf, schema); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		hashes[ci] = hashFromSegmentName(path, f)
	}
	return assembleShard(schema, chunkSize, segs, hashes)
}

// readShardedV3 loads a v3 manifest, eagerly or lazily. The eager path
// ignores the persisted shard dictionaries and stats — assembleShard rebuilds
// identical ones from the segment contents.
func readShardedV3(path string, body []byte, opts ReadOptions) (*Sharded, error) {
	m := new(manifestV3JSON)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("storage: bad shard manifest %s: %w", path, err)
	}
	schema, err := schemaFromJSON(m.Schema)
	if err != nil {
		return nil, fmt.Errorf("storage: shard manifest %s: %w", path, err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("storage: shard manifest %s names no shards", path)
	}
	if m.ChunkSize <= 0 {
		return nil, fmt.Errorf("storage: shard manifest %s: bad chunk size %d", path, m.ChunkSize)
	}
	dir := filepath.Dir(path)
	for _, sh := range m.Shards {
		for _, c := range sh.Chunks {
			if c.File != filepath.Base(c.File) || c.File == "" {
				return nil, fmt.Errorf("storage: shard manifest %s: segment name %q must be a bare file name", path, c.File)
			}
		}
	}
	if opts.Lazy {
		cache := opts.Cache
		if cache == nil {
			cache = DefaultChunkCache()
		}
		tables := make([]*Table, len(m.Shards))
		for si, sh := range m.Shards {
			tbl, err := buildLazyShard(dir, path, schema, m.ChunkSize, sh, cache)
			if err != nil {
				return nil, fmt.Errorf("storage: shard manifest %s: shard %d: %w", path, si, err)
			}
			tables[si] = tbl
		}
		return NewSharded(tables)
	}
	tables := make([]*Table, len(m.Shards))
	errs := make([]error, len(m.Shards))
	var wg sync.WaitGroup
	for si, sh := range m.Shards {
		files := make([]string, len(sh.Chunks))
		for ci, c := range sh.Chunks {
			files[ci] = c.File
		}
		wg.Add(1)
		//lint:allow goroutinepool load fan-out bounded by the shard count and joined below; storage sits under the cohort pool layer (import cycle)
		go func(si int, files []string) {
			defer wg.Done()
			tables[si], errs[si] = readShardEager(dir, path, schema, m.ChunkSize, files)
		}(si, files)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", si, err)
		}
	}
	return NewSharded(tables)
}

// buildLazyShard binds one shard from v3 manifest metadata alone: manifest
// dictionaries become the global dictionaries, chunk entries become cold
// chunkMeta handles, and no segment file is opened.
func buildLazyShard(dir, path string, schema *activity.Schema, chunkSize int, sh manifestShardV3JSON, cache *ChunkCache) (*Table, error) {
	userCol := schema.UserCol()
	if len(sh.Dicts) != schema.NumCols() || len(sh.IntMin) != schema.NumCols() || len(sh.IntMax) != schema.NumCols() {
		return nil, fmt.Errorf("shard stats do not match the schema's %d columns", schema.NumCols())
	}
	n := len(sh.Chunks)
	st := &Table{
		schema:    schema,
		chunkSize: chunkSize,
		dicts:     make([]*encoding.Dict, schema.NumCols()),
		globalMin: make([]int64, schema.NumCols()),
		globalMax: make([]int64, schema.NumCols()),
		chunks:    make([]*Chunk, n),
	}
	for c := 0; c < schema.NumCols(); c++ {
		st.globalMin[c], st.globalMax[c] = sh.IntMin[c], sh.IntMax[c]
		if c != userCol && schema.IsStringCol(c) {
			st.dicts[c] = encoding.BuildDict(sh.Dicts[c])
		}
	}
	metas := make([]chunkMeta, n)
	states := make([]chunkState, n)
	var userBase uint64
	for ci, c := range sh.Chunks {
		hash := hashFromSegmentName(path, c.File)
		if hash == "" {
			return nil, fmt.Errorf("chunk %d: lazy open requires a content-addressed segment name, got %q", ci, c.File)
		}
		if c.Rows <= 0 || c.Users <= 0 || c.MinUser > c.MaxUser {
			return nil, fmt.Errorf("chunk %d: invalid stats (rows=%d users=%d)", ci, c.Rows, c.Users)
		}
		if c.Bytes <= 0 || c.Bytes > maxSegmentBytes {
			return nil, fmt.Errorf("chunk %d: invalid segment size %d", ci, c.Bytes)
		}
		if ci > 0 && c.MinUser <= sh.Chunks[ci-1].MaxUser {
			return nil, fmt.Errorf("chunk %d: user range overlaps its predecessor", ci)
		}
		if len(c.Cols) != schema.NumCols() {
			return nil, fmt.Errorf("chunk %d: column stats do not match the schema", ci)
		}
		meta := chunkMeta{
			file: c.File, hash: hash, bytes: c.Bytes,
			rows: c.Rows, users: c.Users, userBase: userBase,
			minUser: c.MinUser, maxUser: c.MaxUser,
			strVals: make([][]uint64, schema.NumCols()),
			intMin:  make([]int64, schema.NumCols()),
			intMax:  make([]int64, schema.NumCols()),
			state:   &states[ci],
		}
		for col, cs := range c.Cols {
			if col == userCol {
				continue
			}
			if schema.IsStringCol(col) {
				for k, gid := range cs.Values {
					if gid >= uint64(st.dicts[col].Len()) || (k > 0 && cs.Values[k-1] >= gid) {
						return nil, fmt.Errorf("chunk %d column %d: stats ids out of order or range", ci, col)
					}
				}
				meta.strVals[col] = cs.Values
			} else {
				if cs.Min == nil || cs.Max == nil {
					return nil, fmt.Errorf("chunk %d column %d: missing int range stats", ci, col)
				}
				meta.intMin[col], meta.intMax[col] = *cs.Min, *cs.Max
			}
		}
		metas[ci] = meta
		userBase += uint64(c.Users)
		st.numRows += c.Rows
		st.numUsers += c.Users
	}
	st.lazy = &lazyState{dir: dir, cache: cache, metas: metas, logged: make([]bool, n)}
	return st, nil
}

// readShardedV1 loads a legacy v1 manifest: one whole-shard legacy-format
// segment per shard.
func readShardedV1(path string, body []byte) (*Sharded, error) {
	var m manifestJSON
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("storage: bad shard manifest %s: %w", path, err)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("storage: shard manifest %s names no segments", path)
	}
	dir := filepath.Dir(path)
	tables := make([]*Table, len(m.Segments))
	errs := make([]error, len(m.Segments))
	var wg sync.WaitGroup
	for i, seg := range m.Segments {
		if seg != filepath.Base(seg) || seg == "" {
			return nil, fmt.Errorf("storage: shard manifest %s: segment name %q must be a bare file name", path, seg)
		}
		wg.Add(1)
		//lint:allow goroutinepool load fan-out bounded by the shard count and joined below; storage sits under the cohort pool layer (import cycle)
		go func(i int, seg string) {
			defer wg.Done()
			tables[i], errs[i] = ReadFile(filepath.Join(dir, seg))
		}(i, seg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d segment: %w", i, err)
		}
	}
	// Each segment deserializes a structurally equal but distinct Schema;
	// rebind every shard to one shared instance while the tables are still
	// exclusively owned, so downstream schema comparisons — including the
	// pointer fast paths in table merges — all see one schema. This is the
	// only place shards are mutated; once published they are immutable.
	for _, tbl := range tables[1:] {
		if !tables[0].schema.Equal(tbl.schema) {
			break // NewSharded reports the mismatch
		}
		tbl.schema = tables[0].schema
	}
	return NewSharded(tables)
}

// WriteShardedFile atomically persists a sharded table at path as a v2
// manifest commit; see CommitSharded.
func WriteShardedFile(path string, s *Sharded) error {
	_, err := CommitSharded(path, s)
	return err
}

// CommitSharded atomically persists a sharded table at path: chunk segments
// whose content-hash names are not yet on disk are written and fsynced, the
// manifest renames into place as the commit point, and segments the new
// manifest no longer references are swept. Content addressing makes the
// commit incremental by construction — a layout that shares chunks with the
// previously committed one (the normal case after a chunk-granular
// compaction) writes only the new chunks and the manifest. The returned
// stats report exactly what was written.
func CommitSharded(path string, s *Sharded) (CommitStats, error) {
	var stats CommitStats
	dir := filepath.Dir(path)
	m := manifestV3JSON{
		Version:   previousManifestVersion(path) + 1,
		Schema:    schemaToJSON(s.Schema()),
		ChunkSize: s.ChunkSize(),
		Shards:    make([]manifestShardV3JSON, s.NumShards()),
	}
	keep := make(map[string]bool)
	bytesByName := make(map[string]int64)
	for si := 0; si < s.NumShards(); si++ {
		sh, err := s.Shard(si).manifestShard(path, dir, keep, bytesByName, &stats)
		if err != nil {
			return stats, fmt.Errorf("storage: shard %d: %w", si, err)
		}
		m.Shards[si] = sh
	}
	// Make the new segments' directory entries durable before the manifest
	// can reference them, and the manifest rename durable before the caller
	// (the compactor) may truncate journals on the back of this commit — a
	// power loss must never leave a manifest pointing at segments whose
	// directory entries vanished, or roll back a rename the journal already
	// trusted.
	if stats.SegmentsWritten > 0 {
		if err := syncDir(dir); err != nil {
			return stats, err
		}
	}
	body, err := json.Marshal(m)
	if err != nil {
		return stats, err
	}
	if err := atomicWriteFile(path, append([]byte(shardMagicV3), body...)); err != nil {
		return stats, err
	}
	if err := syncDir(dir); err != nil {
		return stats, err
	}
	stats.BytesWritten += int64(len(shardMagicV3) + len(body))
	obs.PersistedBytesTotal.Add(stats.BytesWritten)
	obs.SegmentsWrittenTotal.Add(int64(stats.SegmentsWritten))
	obs.SegmentsReusedTotal.Add(int64(stats.SegmentsReused))
	sweepSegments(path, keep)
	return stats, nil
}

// manifestShard builds one shard's v3 manifest entry and writes any segment
// files not yet on disk. Lazy shards answer entirely from their chunkMeta
// handles — cold chunks are never loaded; a cold chunk whose segment file is
// missing at commit time is corruption (live lazy tables only swap in rebuilt
// chunks after their segments persist).
func (st *Table) manifestShard(path, dir string, keep map[string]bool, bytesByName map[string]int64, stats *CommitStats) (manifestShardV3JSON, error) {
	schema := st.schema
	userCol := schema.UserCol()
	sh := manifestShardV3JSON{
		Chunks: make([]manifestChunkV3JSON, st.NumChunks()),
		Dicts:  make([][]string, schema.NumCols()),
		IntMin: make([]int64, schema.NumCols()),
		IntMax: make([]int64, schema.NumCols()),
	}
	for c := 0; c < schema.NumCols(); c++ {
		sh.IntMin[c], sh.IntMax[c] = st.globalMin[c], st.globalMax[c]
		if c != userCol && schema.IsStringCol(c) {
			sh.Dicts[c] = st.dicts[c].Values()
		}
	}
	for ci := 0; ci < st.NumChunks(); ci++ {
		entry, err := st.manifestChunk(path, dir, ci, keep, bytesByName, stats)
		if err != nil {
			return sh, fmt.Errorf("chunk %d: %w", ci, err)
		}
		sh.Chunks[ci] = entry
	}
	return sh, nil
}

// manifestChunk builds one chunk's manifest entry, writing its segment file
// if no identically-named one exists yet.
func (st *Table) manifestChunk(path, dir string, ci int, keep map[string]bool, bytesByName map[string]int64, stats *CommitStats) (manifestChunkV3JSON, error) {
	var entry manifestChunkV3JSON
	if st.lazy != nil {
		meta := &st.lazy.metas[ci]
		name := segmentName(path, meta.hash)
		entry = manifestChunkV3JSON{
			File: name, Rows: meta.rows, Users: meta.users,
			MinUser: meta.minUser, MaxUser: meta.maxUser,
			Cols: colStatsV3(st.schema, meta.strVals, meta.intMin, meta.intMax),
		}
		if !keep[name] {
			keep[name] = true
			if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
				stats.SegmentsReused++
				bytesByName[name] = fi.Size()
			} else {
				// The segment is not on disk; only a resident payload can
				// produce it. Perm chunks (rebuilt by a merge, not yet
				// committed) are always resident; a cold chunk missing its
				// file is corruption.
				ch := st.chunks[ci]
				if !meta.perm {
					st.lazy.cache.mu.Lock()
					ch = st.chunks[ci]
					st.lazy.cache.mu.Unlock()
				}
				if ch == nil {
					return entry, &CorruptSegmentError{
						Path: filepath.Join(dir, name),
						Err:  fmt.Errorf("segment missing at commit and chunk payload not resident"),
					}
				}
				buf := appendChunkSegment(nil, st.schema, st.dicts, ch)
				if err := atomicWriteFile(filepath.Join(dir, name), buf); err != nil {
					return entry, fmt.Errorf("writing segment: %w", err)
				}
				stats.SegmentsWritten++
				stats.BytesWritten += int64(len(buf))
				bytesByName[name] = int64(len(buf))
			}
		}
		entry.Bytes = bytesByName[name]
		return entry, nil
	}
	// A chunk not hashed yet — every chunk of a fresh build — is serialized
	// once: the bytes that name the segment are the bytes written.
	hash, buf := st.segmentHash(ci)
	name := segmentName(path, hash)
	minUser, maxUser := st.ChunkUserRange(ci)
	strVals, intMin, intMax := st.chunkManifestStats(ci)
	entry = manifestChunkV3JSON{
		File: name, Rows: st.chunks[ci].NumRows(), Users: st.chunks[ci].NumUsers(),
		MinUser: minUser, MaxUser: maxUser,
		Cols: colStatsV3(st.schema, strVals, intMin, intMax),
	}
	if !keep[name] {
		keep[name] = true
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			stats.SegmentsReused++
			bytesByName[name] = fi.Size()
		} else {
			if buf == nil {
				buf = st.segmentBytes(ci)
			}
			if err := atomicWriteFile(filepath.Join(dir, name), buf); err != nil {
				return entry, fmt.Errorf("writing segment: %w", err)
			}
			stats.SegmentsWritten++
			stats.BytesWritten += int64(len(buf))
			bytesByName[name] = int64(len(buf))
		}
	}
	entry.Bytes = bytesByName[name]
	return entry, nil
}

// colStatsV3 shapes per-chunk column stats for the manifest; the user column
// entry stays empty (its range lives in MinUser/MaxUser).
func colStatsV3(schema *activity.Schema, strVals [][]uint64, intMin, intMax []int64) []manifestColStatsJSON {
	cols := make([]manifestColStatsJSON, schema.NumCols())
	for c := range cols {
		if c == schema.UserCol() {
			continue
		}
		if schema.IsStringCol(c) {
			cols[c].Values = strVals[c]
		} else {
			mn, mx := intMin[c], intMax[c]
			cols[c].Min, cols[c].Max = &mn, &mx
		}
	}
	return cols
}

// syncDir fsyncs a directory so renames and new entries inside it survive a
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segmentName builds the content-addressed segment file basename from a
// chunk's hex content hash.
func segmentName(path, hash string) string {
	return fmt.Sprintf("%s.g%s%s", filepath.Base(path), hash, SegmentExt)
}

// hashFromSegmentName recovers the content hash from a segment basename, or
// "" when the name has another shape (hand-renamed files stay loadable;
// their chunks just re-hash on the next commit).
func hashFromSegmentName(path, name string) string {
	rest, okPrefix := strings.CutPrefix(name, filepath.Base(path)+".g")
	rest, okSuffix := strings.CutSuffix(rest, SegmentExt)
	if !okPrefix || !okSuffix || len(rest) != 32 {
		return ""
	}
	if _, err := hex.DecodeString(rest); err != nil {
		return ""
	}
	return rest
}

// previousManifestVersion reads the commit counter of the manifest currently
// at path; 0 when there is none (or it is a legacy layout).
func previousManifestVersion(path string) int {
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) < len(shardMagicV2) {
		return 0
	}
	switch string(buf[:len(shardMagicV2)]) {
	case shardMagicV3:
		var m manifestV3JSON
		if json.Unmarshal(buf[len(shardMagicV3):], &m) == nil {
			return m.Version
		}
	case shardMagicV2:
		var m manifestV2JSON
		if json.Unmarshal(buf[len(shardMagicV2):], &m) == nil {
			return m.Version
		}
	case shardMagic:
		var m manifestJSON
		if json.Unmarshal(buf[len(shardMagic):], &m) == nil {
			return m.Version
		}
	}
	return 0
}

// listSegments lists every segment file belonging to the table at path, of
// either manifest generation: <base>.g<32 hex>.cohseg (v2+, a content hash)
// or <base>.v<n>.s<i>.cohseg (v1, a version and a shard). The directory is
// read and each name parsed, never globbed: a table name may hold *, ? or [,
// and a pattern built from it would match — and the sweep delete — another
// table's segments, or fail to parse and sweep nothing.
func listSegments(path string) []string {
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		if name := e.Name(); hashFromSegmentName(path, name) != "" || isV1SegmentName(path, name) {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

// isV1SegmentName reports whether name is <base>.v<digits>.s<digits>.cohseg
// for the table at path.
func isV1SegmentName(path, name string) bool {
	rest, ok := strings.CutPrefix(name, filepath.Base(path)+".v")
	if !ok {
		return false
	}
	if rest, ok = strings.CutSuffix(rest, SegmentExt); !ok {
		return false
	}
	version, shard, ok := strings.Cut(rest, ".s")
	return ok && isDigits(version) && isDigits(shard)
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}

// sweepSegments removes segment files of the table at path that are not in
// keep (best effort — a failed remove only leaves garbage, never corruption).
func sweepSegments(path string, keep map[string]bool) {
	for _, f := range listSegments(path) {
		if !keep[filepath.Base(f)] {
			_ = os.Remove(f)
		}
	}
}

// atomicWriteFile writes buf at path via a same-directory temp file, fsync
// and rename, so concurrent readers see the old bytes or the new bytes but
// never a torn write.
func atomicWriteFile(path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	//lint:allow commitproto CommitSharded syncs the directory once after its last rename, batching the dir fsync across segment files
	return os.Rename(tmp.Name(), path)
}
