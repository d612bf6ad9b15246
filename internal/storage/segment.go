package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/activity"
	"repro/internal/encoding"
)

// A chunk segment is the unit of incremental persistence: one chunk,
// serialized *self-contained*. Where the in-memory chunk references the
// shard's global dictionaries by global-id, the segment stores the values
// themselves — the user runs carry user strings, the chunk dictionaries carry
// their string values — so a chunk's bytes depend only on its own rows. A
// compaction that grows the shard's global dictionary therefore never changes
// the bytes of an untouched chunk, which is what lets the manifest commit
// skip rewriting it. The bit-packed payloads and frame-of-reference columns
// are chunk-local in both representations and are stored verbatim.
//
// Loading a shard reverses the split: the per-chunk value lists merge into
// fresh global dictionaries, each chunk's values remap to global-ids, and the
// bit-packed payloads are adopted untouched (chunk-ids index the chunk
// dictionary, whose cardinality is unchanged by the remap).

// chunkMagic identifies and versions the self-contained chunk segment format.
const chunkMagic = "COHANAC1"

// appendChunkSegment serializes ch self-contained: its own users, and string
// dictionary ids resolved to values through the owning table's global
// dictionaries.
func appendChunkSegment(dst []byte, schema *activity.Schema, dicts []*encoding.Dict, ch *Chunk) []byte {
	dst = append(dst, chunkMagic...)
	dst = binary.AppendUvarint(dst, uint64(ch.numRows))
	userCol := schema.UserCol()
	dst = binary.AppendUvarint(dst, uint64(ch.users.NumRuns()))
	for r, u := range ch.userVals {
		dst = binary.AppendUvarint(dst, uint64(len(u)))
		dst = append(dst, u...)
		dst = binary.AppendUvarint(dst, uint64(ch.users.Run(r).Length))
	}
	for c := 0; c < schema.NumCols(); c++ {
		if c == userCol {
			continue
		}
		if schema.IsStringCol(c) {
			cd := ch.cols[c].cdict
			dst = binary.AppendUvarint(dst, uint64(cd.Len()))
			for i := 0; i < cd.Len(); i++ {
				v := dicts[c].Value(cd.GlobalID(uint64(i)))
				dst = binary.AppendUvarint(dst, uint64(len(v)))
				dst = append(dst, v...)
			}
			dst = ch.cols[c].ids.AppendTo(dst)
		} else {
			dst = ch.cols[c].ints.AppendTo(dst)
		}
	}
	return dst
}

// segment returns chunk i's segment identity: the content hash naming its
// segment file — the first 128 bits of SHA-256 over the segment bytes,
// hex-encoded (a collision-resistant hash, so adversarial chunk contents
// cannot alias two different chunks onto one segment file) — and the
// segment's size. A cold chunk's come from its manifest entry. A perm
// chunk's are computed on first use and kept; chunks carried through a merge
// share them, so an incremental commit hashes only the chunks a compaction
// actually rebuilt. When this call is the one that computed them, buf is the
// segment it serialized to do so, for a committer to write without
// serializing again; otherwise buf is nil.
func (st *Table) segment(i int) (hash string, size int64, buf []byte) {
	m := &st.metas[i]
	if !m.perm {
		return m.hash, m.bytes, nil
	}
	m.seg.once.Do(func() {
		buf = appendChunkSegment(nil, st.schema, st.dicts, st.chunks[i])
		m.seg.hash, m.seg.bytes = hashSegment(buf), int64(len(buf))
	})
	return m.seg.hash, m.seg.bytes, buf
}

// EncodedSize returns the total size in bytes of the table's chunk segments —
// the bytes a commit stores for it, and the storage-space metric reported in
// Figure 7 of the paper. A table opened from a manifest answers from it
// without loading anything.
func (st *Table) EncodedSize() int {
	n := int64(0)
	for i := range st.metas {
		_, size, _ := st.segment(i)
		n += size
	}
	return int(n)
}

// hashSegment is the content hash of a segment's bytes.
func hashSegment(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:16])
}

// segChunk is a decoded self-contained chunk segment, values not yet bound to
// any global dictionary. It is a view of the segment's bytes, not a copy: the
// packed payloads are sub-slices of the buffer handed to decodeChunkSegment
// and every string is a substring of one string laid over that buffer, so a
// resident chunk costs its file size plus a few small index slices.
type segChunk struct {
	numRows int
	users   []string // distinct users in run order (ascending)
	lengths []uint32 // run length per user
	cols    []segColumn
	// births is the birth indexes built over this payload, shared by every
	// Chunk bound to it.
	births birthIndexes
}

// segColumn is one non-user column of a segChunk, indexed like the schema.
type segColumn struct {
	// For string columns:
	vals []string           // chunk dictionary values (ascending)
	ids  encoding.BitPacked // chunk-ids
	// For integer/time columns:
	ints encoding.FrameOfRef
}

// decodeString reads one length-prefixed string as a substring of text, the
// string laid over the whole segment; src is the unread suffix of the same
// bytes.
func decodeString(text string, src []byte) (string, []byte, error) {
	l, k := encoding.Uvarint(src)
	if k <= 0 || uint64(len(src)-k) < l {
		return "", nil, fmt.Errorf("storage: truncated string")
	}
	off := len(text) - len(src) + k
	return text[off : off+int(l)], src[k+int(l):], nil
}

// decodeChunkSegment parses a segment produced by appendChunkSegment into sc,
// reusing the storage of sc's slices (a pooled arena's segChunk holds the
// previous chunk's). The result aliases src (see segChunk), so callers hand
// over the buffer: src must not be mutated for as long as the chunk, or any
// string taken from it, is in use. Every varint must be minimally encoded,
// which makes the accepted bytes of a chunk unique: decode followed by
// appendChunkSegment is the identity. sc.births is left alone.
func decodeChunkSegment(sc *segChunk, src []byte, schema *activity.Schema) error {
	if len(src) < len(chunkMagic) || string(src[:len(chunkMagic)]) != chunkMagic {
		return fmt.Errorf("storage: bad magic (not a COHANA chunk segment)")
	}
	text := unsafe.String(unsafe.SliceData(src), len(src))
	src = src[len(chunkMagic):]
	rows, k := encoding.Uvarint(src)
	if k <= 0 {
		return fmt.Errorf("storage: truncated segment header")
	}
	src = src[k:]
	nusers, k := encoding.Uvarint(src)
	if k <= 0 || nusers > uint64(len(src))+1 {
		return fmt.Errorf("storage: truncated segment user count")
	}
	src = src[k:]
	sc.numRows = int(rows)
	sc.users = resize(sc.users, int(nusers))
	sc.lengths = resize(sc.lengths, int(nusers))
	sc.cols = resize(sc.cols, schema.NumCols())
	var err error
	total := uint64(0)
	for i := range sc.users {
		if sc.users[i], src, err = decodeString(text, src); err != nil {
			return fmt.Errorf("storage: segment user %d: %w", i, err)
		}
		if i > 0 && sc.users[i] <= sc.users[i-1] {
			return fmt.Errorf("storage: segment users out of order at %d", i)
		}
		l, k := encoding.Uvarint(src)
		if k <= 0 {
			return fmt.Errorf("storage: truncated run length for user %d", i)
		}
		if l > math.MaxUint32 {
			// Lengths are stored as uint32 in the in-memory RLE; a larger
			// value would silently truncate and desynchronize the run totals
			// from the column payloads.
			return fmt.Errorf("storage: run length %d for user %d overflows", l, i)
		}
		src = src[k:]
		sc.lengths[i] = uint32(l)
		total += l
	}
	if total != rows {
		return fmt.Errorf("storage: segment user runs sum to %d rows, header says %d", total, rows)
	}
	for c := range sc.cols {
		col := &sc.cols[c]
		*col = segColumn{vals: col.vals[:0]}
		if c == schema.UserCol() {
			continue
		}
		if schema.IsStringCol(c) {
			n, k := encoding.Uvarint(src)
			if k <= 0 || n > uint64(len(src))+1 {
				return fmt.Errorf("storage: truncated segment dict for column %d", c)
			}
			src = src[k:]
			col.vals = resize(col.vals, int(n))
			for i := range col.vals {
				if col.vals[i], src, err = decodeString(text, src); err != nil {
					return fmt.Errorf("storage: segment dict column %d entry %d: %w", c, i, err)
				}
				if i > 0 && col.vals[i] <= col.vals[i-1] {
					return fmt.Errorf("storage: segment dict column %d out of order at %d", c, i)
				}
			}
			if col.ids, src, err = encoding.DecodeBitPacked(src); err != nil {
				return fmt.Errorf("storage: segment column %d ids: %w", c, err)
			}
		} else {
			if col.ints, src, err = encoding.DecodeFrameOfRef(src); err != nil {
				return fmt.Errorf("storage: segment column %d ints: %w", c, err)
			}
		}
	}
	if len(src) != 0 {
		return fmt.Errorf("storage: %d trailing segment bytes", len(src))
	}
	return nil
}

// resize returns s with length n, reusing its storage when it is large
// enough; the elements are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// assembleShard binds self-contained chunks — decoded from segments or fresh
// from the encoder, and in user-range order — into one Table of perm chunks:
// the global dictionaries are the union of the per-chunk value lists, each
// chunk's structures bind onto them, and the bit-packed payloads are adopted
// as-is.
func assembleShard(schema *activity.Schema, chunkSize int, segs []*segChunk) (*Table, error) {
	st := &Table{
		schema:    schema,
		chunkSize: chunkSize,
		dicts:     make([]*encoding.Dict, schema.NumCols()),
		globalMin: make([]int64, schema.NumCols()),
		globalMax: make([]int64, schema.NumCols()),
		metas:     make([]chunkMeta, 0, len(segs)),
		chunks:    make([]*Chunk, 0, len(segs)),
	}
	userCol := schema.UserCol()
	for i, sc := range segs {
		// Users ascend within a chunk (the decoder checks it) and must go on
		// ascending from chunk to chunk.
		if len(sc.users) == 0 {
			return nil, fmt.Errorf("storage: chunk %d holds no users", i)
		}
		if i > 0 && sc.users[0] <= segs[i-1].users[len(segs[i-1].users)-1] {
			return nil, fmt.Errorf("storage: chunk %d: user range overlaps its predecessor", i)
		}
	}
	for c := 0; c < schema.NumCols(); c++ {
		if c == userCol || !schema.IsStringCol(c) {
			continue
		}
		var vals []string
		for _, sc := range segs {
			vals = append(vals, sc.cols[c].vals...)
		}
		st.dicts[c] = encoding.BuildDict(vals)
	}
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			continue
		}
		for i, sc := range segs {
			f := &sc.cols[c].ints
			if i == 0 || f.Min() < st.globalMin[c] {
				st.globalMin[c] = f.Min()
			}
			if i == 0 || f.Max() > st.globalMax[c] {
				st.globalMax[c] = f.Max()
			}
		}
	}
	for si, sc := range segs {
		ch, err := bindChunk(schema, st.dicts, sc, uint64(st.numUsers))
		if err != nil {
			return nil, fmt.Errorf("storage: chunk %d: %w", si, err)
		}
		st.appendPerm(ch)
	}
	return st, nil
}

// bindChunk binds one self-contained chunk to a shard's global dictionaries.
// Its users take the ids userBase, userBase+1, … — their positions in the
// shard's ascending user order — and each string column's value list resolves
// to global-ids by binary search; the users and packed payloads are shared
// with sc.
func bindChunk(schema *activity.Schema, dicts []*encoding.Dict, sc *segChunk, userBase uint64) (*Chunk, error) {
	userCol := schema.UserCol()
	ch := &Chunk{
		numRows:  sc.numRows,
		users:    encoding.RLEConsecutive(userBase, sc.lengths),
		cols:     make([]chunkColumn, schema.NumCols()),
		userVals: sc.users,
		userBase: userBase,
		births:   &sc.births,
	}
	for c := 0; c < schema.NumCols(); c++ {
		if c == userCol {
			continue
		}
		if !schema.IsStringCol(c) {
			ch.cols[c] = chunkColumn{ints: &sc.cols[c].ints}
			continue
		}
		ids := make([]uint64, len(sc.cols[c].vals))
		for i, v := range sc.cols[c].vals {
			gid, ok := dicts[c].Lookup(v)
			if !ok {
				return nil, fmt.Errorf("column %d: value %q missing from the dictionary", c, v)
			}
			ids[i] = gid
		}
		cd, err := encoding.ChunkDictFromIDs(ids)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		ch.cols[c] = chunkColumn{cdict: cd, ids: &sc.cols[c].ids}
	}
	return ch, nil
}
