package encoding

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// FrameOfRef is the two-level delta encoding of Section 4.1 for integer
// columns: a chunk stores its own MIN and MAX, and each value is stored as
// the unsigned delta from the chunk MIN, bit-packed at fixed width. The
// (MIN, MAX) pair doubles as the chunk range used to prune chunks whose
// values cannot satisfy a range predicate.
type FrameOfRef struct {
	min, max int64
	deltas   BitPacked
}

// EncodeFrameOfRef encodes values, packing each delta straight into the
// frame. Empty input yields a zero-range frame.
func EncodeFrameOfRef(values []int64) *FrameOfRef {
	var mn, mx int64
	if len(values) > 0 {
		mn, mx = MinMax(values[1:], values[0], values[0])
	}
	deltas := newPacker(len(values), BitWidth(uint64(mx-mn)))
	deltas.appendDeltas(values, mn)
	return &FrameOfRef{min: mn, max: mx, deltas: deltas.finish()}
}

// EncodeInts builds one chunk of an integer column from the rows in ranges.
// An integer column is pointer-free, so rows lying in several ranges are
// gathered first: the range scan and the packing then read one contiguous
// slice instead of striding the source twice.
func (e *Encoder) EncodeInts(col []int64, ranges []Range) FrameOfRef {
	if len(ranges) == 1 {
		return *EncodeFrameOfRef(col[ranges[0].Lo:ranges[0].Hi])
	}
	rows := 0
	for _, r := range ranges {
		rows += r.Hi - r.Lo
	}
	e.ints = slices.Grow(e.ints[:0], rows)
	for _, r := range ranges {
		e.ints = append(e.ints, col[r.Lo:r.Hi]...)
	}
	return *EncodeFrameOfRef(e.ints)
}

// MinMax widens [mn, mx] to cover values.
func MinMax(values []int64, mn, mx int64) (int64, int64) {
	for _, v := range values {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Len returns the number of encoded values.
func (f *FrameOfRef) Len() int { return f.deltas.Len() }

// Min returns the chunk minimum.
func (f *FrameOfRef) Min() int64 { return f.min }

// Max returns the chunk maximum.
func (f *FrameOfRef) Max() int64 { return f.max }

// Get returns the i-th decoded value.
func (f *FrameOfRef) Get(i int) int64 { return f.min + int64(f.deltas.Get(i)) }

// Raw returns the i-th value in the encoded delta domain (value - MIN),
// skipping the frame-of-reference reconstruction. Predicate pushdown
// evaluates comparisons here: a threshold translated once into delta space
// turns each per-row check into a bare bit-packed read and an unsigned
// compare, never materializing the column value.
func (f *FrameOfRef) Raw(i int) uint64 { return f.deltas.Get(i) }

// LoadRaw is Raw read by one unaligned load where the value allows it, with
// no straddle test: the birth index fills its time codes this way. Raw, the
// scan kernel's per-row read, keeps Get.
func (f *FrameOfRef) LoadRaw(i int) uint64 { return f.deltas.load(i) }

// AppendRaw appends the encoded deltas at positions [start, end) to dst —
// the batch form of Raw. The chunk kernel extracts a decode window's deltas
// once when enough of its rows are selected, and reads them one by one with
// Raw otherwise.
func (f *FrameOfRef) AppendRaw(dst []uint64, start, end int) []uint64 {
	return f.deltas.AppendRange(dst, start, end)
}

// DeltaOf translates a column value into the encoded delta domain, reporting
// below/above when the value falls outside the chunk's [MIN, MAX] range (no
// encoded value can equal it). Pushdown uses it to compile a range predicate
// once per chunk.
func (f *FrameOfRef) DeltaOf(v int64) (delta uint64, below, above bool) {
	if v < f.min {
		return 0, true, false
	}
	if v > f.max {
		return 0, false, true
	}
	return uint64(v - f.min), false, false
}

// Decode materializes all values.
func (f *FrameOfRef) Decode() []int64 {
	out := make([]int64, f.Len())
	for i := range out {
		out[i] = f.Get(i)
	}
	return out
}

// AppendTo serializes min, max (varint) followed by the packed deltas.
func (f *FrameOfRef) AppendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, f.min)
	dst = binary.AppendVarint(dst, f.max)
	return f.deltas.AppendTo(dst)
}

// DecodeFrameOfRef reads a frame produced by AppendTo and returns the
// remaining bytes. Like DecodeBitPacked, the packed deltas alias src.
func DecodeFrameOfRef(src []byte) (FrameOfRef, []byte, error) {
	mn, k := Varint(src)
	if k <= 0 {
		return FrameOfRef{}, nil, fmt.Errorf("encoding: truncated frame min")
	}
	src = src[k:]
	mx, k := Varint(src)
	if k <= 0 {
		return FrameOfRef{}, nil, fmt.Errorf("encoding: truncated frame max")
	}
	src = src[k:]
	deltas, rest, err := DecodeBitPacked(src)
	if err != nil {
		return FrameOfRef{}, nil, err
	}
	return FrameOfRef{min: mn, max: mx, deltas: deltas}, rest, nil
}
