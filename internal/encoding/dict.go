package encoding

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Dict is a sorted global dictionary for a string column. Global-ids are the
// positions of values in the sorted order, so Lookup is a binary search and
// id comparisons preserve lexicographic value order. This is the first level
// of the two-level compression scheme of Section 4.1.
type Dict struct {
	values []string
}

// BuildDict deduplicates and sorts values into a dictionary.
func BuildDict(values []string) *Dict {
	seen := make(map[string]struct{}, len(values))
	uniq := make([]string, 0, len(values))
	for _, v := range values {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			uniq = append(uniq, v)
		}
	}
	sort.Strings(uniq)
	return &Dict{values: uniq}
}

// Grow returns the dictionary of d's values plus values, and remap, which
// takes an id of d to the same value's id in the result. A compaction grows a
// sealed dictionary by a delta batch this way: it costs a binary search per
// run of equal batch values and a merge of the two sorted lists, never a hash
// of d's own entries. When values holds nothing new the result is d itself
// and remap is nil.
func (d *Dict) Grow(values []string) (grown *Dict, remap []uint64) {
	var fresh []string
	for i, v := range values {
		if i > 0 && v == values[i-1] {
			continue
		}
		if _, ok := d.Lookup(v); !ok {
			fresh = append(fresh, v)
		}
	}
	if len(fresh) == 0 {
		return d, nil
	}
	sort.Strings(fresh)
	fresh = slices.Compact(fresh)
	merged := make([]string, 0, len(d.values)+len(fresh))
	remap = make([]uint64, len(d.values))
	for id, v := range d.values {
		for len(fresh) > 0 && fresh[0] < v {
			merged = append(merged, fresh[0])
			fresh = fresh[1:]
		}
		remap[id] = uint64(len(merged))
		merged = append(merged, v)
	}
	return &Dict{values: append(merged, fresh...)}, remap
}

// Len returns the dictionary cardinality.
func (d *Dict) Len() int { return len(d.values) }

// Value returns the string for a global-id.
func (d *Dict) Value(id uint64) string { return d.values[id] }

// Lookup returns the global-id of v, or false if v is not in the dictionary.
func (d *Dict) Lookup(v string) (uint64, bool) {
	i := sort.SearchStrings(d.values, v)
	if i < len(d.values) && d.values[i] == v {
		return uint64(i), true
	}
	return 0, false
}

// Values returns the sorted dictionary contents. The slice is shared; do not
// mutate.
func (d *Dict) Values() []string { return d.values }

// AppendTo serializes the dictionary as count + length-prefixed strings.
func (d *Dict) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.values)))
	for _, v := range d.values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// DecodeDict reads a dictionary produced by AppendTo and returns the
// remaining bytes.
func DecodeDict(src []byte) (*Dict, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("encoding: truncated dict count")
	}
	src = src[k:]
	// Each entry needs at least one length byte; bound the allocation.
	if n > uint64(len(src))+1 {
		return nil, nil, fmt.Errorf("encoding: dict count %d exceeds input (%d bytes)", n, len(src))
	}
	values := make([]string, n)
	for i := range values {
		l, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, nil, fmt.Errorf("encoding: truncated dict entry %d", i)
		}
		src = src[k:]
		if uint64(len(src)) < l {
			return nil, nil, fmt.Errorf("encoding: truncated dict string %d", i)
		}
		values[i] = string(src[:l])
		src = src[l:]
	}
	return &Dict{values: values}, src, nil
}

// ChunkDict is the second level of the two-level scheme: the sorted
// global-ids of the values present in one chunk. A column value inside the
// chunk is stored as a chunk-id — its position in this slice — which needs
// fewer bits than a global-id. Absence of a global-id from the chunk
// dictionary proves the value does not occur in the chunk, enabling the
// chunk-pruning step of Section 4.2.
type ChunkDict struct {
	globalIDs []uint64 // sorted
}

// ChunkDictFromIDs wraps an already-sorted slice of distinct global-ids as a
// chunk dictionary; the slice is adopted, not copied. Chunk rebuilds use it
// to remap a chunk dictionary onto a grown global dictionary (a monotonic
// remap preserves the sorted order this constructor validates).
func ChunkDictFromIDs(ids []uint64) (*ChunkDict, error) {
	c := new(ChunkDict)
	if err := c.Reset(ids); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c the chunk dictionary of ids, adopting the slice as
// ChunkDictFromIDs does; on error c is left as it was.
func (c *ChunkDict) Reset(ids []uint64) error {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return fmt.Errorf("encoding: chunk dict ids not strictly ascending at %d", i)
		}
	}
	c.globalIDs = ids
	return nil
}

// Len returns the chunk cardinality.
func (c *ChunkDict) Len() int { return len(c.globalIDs) }

// GlobalID maps a chunk-id to its global-id.
func (c *ChunkDict) GlobalID(chunkID uint64) uint64 { return c.globalIDs[chunkID] }

// ChunkID maps a global-id to its chunk-id, or false if the value does not
// occur in the chunk. This is the binary search used for chunk pruning.
func (c *ChunkDict) ChunkID(globalID uint64) (uint64, bool) {
	i := sort.Search(len(c.globalIDs), func(i int) bool { return c.globalIDs[i] >= globalID })
	if i < len(c.globalIDs) && c.globalIDs[i] == globalID {
		return uint64(i), true
	}
	return 0, false
}

// AppendTo serializes as count + delta-encoded sorted global-ids.
func (c *ChunkDict) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.globalIDs)))
	prev := uint64(0)
	for _, g := range c.globalIDs {
		dst = binary.AppendUvarint(dst, g-prev)
		prev = g
	}
	return dst
}

// DecodeChunkDict reads a chunk dictionary produced by AppendTo and returns
// the remaining bytes.
func DecodeChunkDict(src []byte) (*ChunkDict, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("encoding: truncated chunk dict count")
	}
	src = src[k:]
	// Each delta needs at least one byte; bound the allocation.
	if n > uint64(len(src))+1 {
		return nil, nil, fmt.Errorf("encoding: chunk dict count %d exceeds input (%d bytes)", n, len(src))
	}
	ids := make([]uint64, n)
	prev := uint64(0)
	for i := range ids {
		d, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, nil, fmt.Errorf("encoding: truncated chunk dict entry %d", i)
		}
		src = src[k:]
		prev += d
		ids[i] = prev
	}
	return &ChunkDict{globalIDs: ids}, src, nil
}

// Range is the half-open row range [Lo, Hi) of a source column.
type Range struct{ Lo, Hi int }

// Encoder is the build side of the column encodings: it compresses the rows
// of one chunk, read in place from a source column through the row ranges
// that make up the chunk, so nothing is copied before it is encoded and no
// intermediate id or delta slice is built per column. It holds only scratch,
// reused from column to column and chunk to chunk; the zero value is ready.
type Encoder struct {
	index map[string]uint32 // value -> provisional code
	vals  []string          // provisional code -> value
	codes []uint32          // provisional code of every row
	order []uint32          // provisional codes in ascending value order
	rank  []uint32          // provisional code -> chunk-id
	ints  []int64           // an integer column's rows, gathered
}

// EncodeStrings builds one chunk of a string column: the chunk's distinct
// values in ascending order — a fresh slice — and every row's chunk-id, its
// value's position in that list. Dictionary construction and id assignment
// are fused into a single pass over the rows: each value gets a provisional
// code in first-seen order, and a value equal to its predecessor — the common
// case in a table sorted by user, whose dimension columns form long runs —
// costs one compare and no hash. The distinct values are then sorted once,
// and the codes go through the resulting code -> chunk-id table straight into
// the packed array. The map is sized by what a chunk holds, never by a row
// count.
func (e *Encoder) EncodeStrings(col []string, ranges []Range) (sorted []string, ids BitPacked) {
	if e.index == nil {
		e.index = make(map[string]uint32)
	}
	clear(e.index)
	clear(e.vals) // drop the references to the previous column's strings
	e.vals = e.vals[:0]
	rows := 0
	for _, r := range ranges {
		rows += r.Hi - r.Lo
	}
	e.codes = slices.Grow(e.codes[:0], rows)[:rows]
	prev, code, k := "", uint32(0), 0
	for _, r := range ranges {
		for _, v := range col[r.Lo:r.Hi] {
			if k == 0 || v != prev {
				id, ok := e.index[v]
				if !ok {
					id = uint32(len(e.vals))
					e.index[v] = id
					e.vals = append(e.vals, v)
				}
				prev, code = v, id
			}
			e.codes[k] = code
			k++
		}
	}
	n := len(e.vals)
	e.order = slices.Grow(e.order[:0], n)[:n]
	for i := range e.order {
		e.order[i] = uint32(i)
	}
	slices.SortFunc(e.order, func(a, b uint32) int { return strings.Compare(e.vals[a], e.vals[b]) })
	sorted = make([]string, n)
	e.rank = slices.Grow(e.rank[:0], n)[:n]
	for pos, c := range e.order {
		sorted[pos] = e.vals[c]
		e.rank[c] = uint32(pos)
	}
	p := newPacker(rows, BitWidth(uint64(max(n, 1)-1)))
	p.appendMapped(e.codes, e.rank)
	return sorted, p.finish()
}
