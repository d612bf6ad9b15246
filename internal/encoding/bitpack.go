// Package encoding implements the compression primitives used by the COHANA
// storage format: fixed-width bit packing with random access, run-length
// encoding for the user column, two-level (global/chunk) dictionaries for
// string columns and frame-of-reference encoding for integer columns.
//
// All encoders produce self-describing byte slices that the corresponding
// decoders can read back without external metadata, so a column segment can
// be persisted and later accessed positionally without full decompression —
// the property Section 4.1 of the paper calls "of vital importance for
// efficient cohort query processing". Packed codes are also searched in place:
// BitPacked.FirstInRuns finds a code's first row in every run of a user
// column in one word-parallel pass, with no code extracted.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BitWidth returns the minimum number of bits needed to represent max.
// By convention zero values still occupy one bit so that positional access
// arithmetic never divides by zero.
func BitWidth(max uint64) uint {
	if max == 0 {
		return 1
	}
	return uint(bits.Len64(max))
}

// BitPacked is a fixed-width packed array of unsigned integers. Each value
// occupies exactly Width bits; value i lives at bit offset i*Width. Values
// may straddle a 64-bit word boundary, in which case Get stitches the two
// words together. The layout allows O(1) random access on compressed data.
//
// The words are held in their serialized form — little-endian, eight bytes
// each — so a decoded array is a sub-slice of the buffer it was read from and
// a packed one serializes with a plain append: memory and disk share one
// representation.
type BitPacked struct {
	width uint
	n     int
	data  []byte // len is a multiple of 8
}

// PackUint64Width packs values with an explicit width. It panics if any
// value does not fit, since that indicates a bug in the caller's width
// computation rather than a runtime condition.
func PackUint64Width(values []uint64, width uint) *BitPacked {
	p := newPacker(len(values), width)
	for _, v := range values {
		if width < 64 && v >= 1<<width {
			panic(fmt.Sprintf("encoding: value %d does not fit in %d bits", v, width))
		}
		p.put(v)
	}
	b := p.finish()
	return &b
}

// packer fills a BitPacked of a known length and width in order, straight
// from the caller's source values: the chunk encoder packs chunk-ids and
// frame-of-reference deltas without first materializing them as a []uint64.
// Values arrive in order, so each word is assembled in a register and stored
// once, when the next value would start past it. The append methods trust the
// caller's width (a value wider than it would smear into its neighbours);
// PackUint64Width is the checked entry point.
type packer struct {
	b     BitPacked
	acc   uint64 // the word being assembled
	used  uint   // bits of acc already filled
	off   int    // byte offset of acc in b.data
	count int    // values appended so far
}

// newPacker starts a packed array of n values of the given width.
func newPacker(n int, width uint) packer {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("encoding: invalid bit width %d", width))
	}
	totalBits := uint64(n) * uint64(width)
	return packer{b: BitPacked{width: width, n: n, data: make([]byte, (totalBits+63)/64*8)}}
}

func (p *packer) put(v uint64) {
	p.acc |= v << p.used
	if p.used += p.b.width; p.used >= 64 {
		binary.LittleEndian.PutUint64(p.b.data[p.off:], p.acc)
		p.off += 8
		p.used -= 64
		// The bits of v that did not fit start the next word; when v ended
		// exactly on the boundary the shift clears all of it.
		p.acc = v >> (p.b.width - p.used)
	}
	p.count++
}

// appendMapped appends table[c] for every code c: a string column's
// provisional codes translated to chunk-ids on the way into the array.
func (p *packer) appendMapped(codes, table []uint32) {
	data, width := p.b.data, p.b.width
	acc, used, off := p.acc, p.used, p.off
	for _, c := range codes {
		v := uint64(table[c])
		acc |= v << used
		if used += width; used >= 64 {
			binary.LittleEndian.PutUint64(data[off:], acc)
			off += 8
			used -= 64
			acc = v >> (width - used)
		}
	}
	p.acc, p.used, p.off = acc, used, off
	p.count += len(codes)
}

// appendDeltas appends v-base for every value v, as an unsigned 64-bit
// difference: the frame-of-reference form of an integer column.
func (p *packer) appendDeltas(values []int64, base int64) {
	data, width := p.b.data, p.b.width
	acc, used, off := p.acc, p.used, p.off
	for _, x := range values {
		v := uint64(x - base)
		acc |= v << used
		if used += width; used >= 64 {
			binary.LittleEndian.PutUint64(data[off:], acc)
			off += 8
			used -= 64
			acc = v >> (width - used)
		}
	}
	p.acc, p.used, p.off = acc, used, off
	p.count += len(values)
}

// finish stores the last partial word and returns the packed array. It panics
// unless exactly the announced number of values was appended.
func (p *packer) finish() BitPacked {
	if p.count != p.b.n {
		panic(fmt.Sprintf("encoding: packer holds %d values, announced %d", p.count, p.b.n))
	}
	if p.used > 0 {
		binary.LittleEndian.PutUint64(p.b.data[p.off:], p.acc)
	}
	return p.b
}

// Len returns the number of packed values.
func (b *BitPacked) Len() int { return b.n }

// Width returns the per-value width in bits.
func (b *BitPacked) Width() uint { return b.width }

// Get returns the i-th value. It performs no bounds check beyond the slice
// access itself; callers iterate within [0, Len()).
func (b *BitPacked) Get(i int) uint64 {
	bitPos := uint64(i) * uint64(b.width)
	// The full slice expressions fix each operand at 8 bytes, so the loads
	// need no bounds check of their own and Get stays within the inlining
	// budget.
	p := b.data[bitPos/64*8:]
	shift := bitPos % 64
	v := binary.LittleEndian.Uint64(p[:8:8]) >> shift
	if shift+uint64(b.width) > 64 {
		v |= binary.LittleEndian.Uint64(p[8:16:16]) << (64 - shift)
	}
	// At width 64 the shift yields 0 and the mask is all ones.
	return v & (1<<b.width - 1)
}

// AppendRange appends the values at positions [start, end) to dst and returns
// the extended slice. Batch extraction — the feed of the run-aware execution
// kernels — advances a running bit position instead of re-deriving it per
// element, so a value costs a load, a shift and a mask rather than a full
// Get. Bounds follow Get's contract: callers stay within [0, Len()].
func (b *BitPacked) AppendRange(dst []uint64, start, end int) []uint64 {
	n := end - start
	if n <= 0 {
		return dst
	}
	// Grow once and write by index: an append per value would re-check
	// capacity and bump the length on every element of the hot decode loop.
	base := len(dst)
	if cap(dst) < base+n {
		grown := make([]uint64, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	out := dst[base:]
	if b.width == 0 {
		// A constant column packs to width 0: every value is code 0.
		clear(out)
		return dst
	}
	width := uint64(b.width)
	// A value of at most 57 bits lies within the 8 bytes that begin at its
	// byte offset, so one unaligned load fetches it with no straddle case —
	// what a byte-backed array offers in place of an aligned word walk, at
	// the same cost per value. Only values that begin in the last 7 bytes of
	// data cannot load that way; they, and wider values, go through Get.
	fast := 0
	if width <= 57 && len(b.data) >= 8 {
		loadable := (uint64(len(b.data)-7)*8 + width - 1) / width // values beginning before the last 7 bytes
		fast = max(0, min(end, int(loadable))-start)
	}
	unpackBytewise(out[:fast], b.data, uint64(start)*width, width)
	for i := fast; i < n; i++ {
		out[i] = b.Get(start + i)
	}
	return dst
}

// unpackBytewise fills out with the width-bit values starting at bitPos, each
// fetched by one unaligned 8-byte load; see AppendRange for when that is
// valid. It is a function of its own, never inlined, so that the loop keeps
// its few variables in registers: merged into AppendRange it spills to the
// stack and runs at half the speed.
//
//go:noinline
func unpackBytewise(out []uint64, data []byte, bitPos, width uint64) {
	mask := uint64(1)<<width - 1
	for i := range out {
		off := bitPos >> 3
		v := binary.LittleEndian.Uint64(data[off:off+8:off+8]) >> (bitPos & 7)
		out[i] = v & mask
		bitPos += width
	}
}

// FirstInRuns writes, for each run i of runs, 1 + the first position in the
// run whose value is v into out[i], or 0 when none is: a first-match search
// per user run over the packed codes, without extracting them. out must hold
// runs.NumRuns() words. It returns the number of codes a one-by-one search
// compares: each run up to its match, or all of it.
//
// For width <= 8 it compares ⌊57/width⌋ codes per step, BitWeaving/H's
// word-parallel compare (Li & Patel, SIGMOD 2013): one unaligned 8-byte load,
// XOR with v broadcast to every lane, and the has-zero-lane test
// (x-lo) &^ x & hi, which flags the high bit of each lane that x-lo turns
// negative. The lowest flag is exact: a lane below the first zero lane holds
// x >= 1 with no borrow coming in, so x-1 keeps its high bit clear unless x
// has it set, and &^ x drops that; borrows only run upward from a true zero
// lane. A flag at or past the run's end is a miss. Wider codes, and positions
// in the last 7 bytes, which one load cannot reach, are compared one by one.
func (b *BitPacked) FirstInRuns(v uint64, runs *RLE, out []uint64) (compared int64) {
	width := uint64(b.width)
	loadable := 0 // positions beginning before the last 7 bytes, as in AppendRange
	if width <= 57 && len(b.data) >= 8 {
		loadable = int((uint64(len(b.data)-7)*8 + width - 1) / width)
	}
	// recip turns a flag's bit index k into its lane, k*recip>>16 = k/width
	// for every k < 64, with no division per match.
	lanes, lo, recip := 0, uint64(0), (1<<16+width-1)/width
	if width <= 8 && v < 1<<width {
		lanes = int(57 / width)
		for j := range lanes {
			lo |= 1 << (uint64(j) * width)
		}
	}
	hi, vb, mask, data := lo<<(width-1), v*lo, uint64(1)<<width-1, b.data
	for i, r := range runs.runs {
		pos, end := int(r.Start), int(r.Start)+int(r.Length)
		fast := min(end, loadable)
		for ; lanes > 0 && pos < fast; pos += lanes {
			bitPos := uint64(pos) * width
			off := bitPos >> 3
			x := binary.LittleEndian.Uint64(data[off:off+8:off+8])>>(bitPos&7) ^ vb
			if z := (x - lo) &^ x & hi; z != 0 {
				if pos += int(uint64(bits.TrailingZeros64(z)) * recip >> 16); pos < end {
					goto match
				}
				break // past the run: a miss, and pos >= end skips the loops below
			}
		}
		for ; pos < fast; pos++ {
			bitPos := uint64(pos) * width
			off := bitPos >> 3
			if binary.LittleEndian.Uint64(data[off:off+8:off+8])>>(bitPos&7)&mask == v {
				goto match
			}
		}
		for ; pos < end; pos++ {
			if b.Get(pos) == v {
				goto match
			}
		}
		out[i] = 0
		compared += int64(r.Length)
		continue
	match:
		out[i] = uint64(pos) + 1
		compared += int64(pos + 1 - int(r.Start))
	}
	return compared
}

// load is Get by the one unaligned 8-byte load AppendRange uses: a value of at
// most 57 bits that begins before the last 7 bytes lies within the 8 bytes at
// its byte offset, so no straddle test is needed. Other values go through Get.
func (b *BitPacked) load(i int) uint64 {
	bitPos := uint64(i) * uint64(b.width)
	if off := bitPos >> 3; b.width <= 57 && off+8 <= uint64(len(b.data)) {
		return binary.LittleEndian.Uint64(b.data[off:off+8:off+8]) >> (bitPos & 7) & (1<<b.width - 1)
	}
	return b.Get(i)
}

// AppendTo serializes the packed array: width (1 byte), count (uvarint),
// then the words in little-endian order.
func (b *BitPacked) AppendTo(dst []byte) []byte {
	dst = append(dst, byte(b.width))
	dst = binary.AppendUvarint(dst, uint64(b.n))
	return append(dst, b.data...)
}

// DecodeBitPacked reads a packed array produced by AppendTo and returns the
// remaining bytes. The packed words alias src — nothing is copied — so callers
// must not mutate src while the array is in use.
func DecodeBitPacked(src []byte) (BitPacked, []byte, error) {
	if len(src) < 1 {
		return BitPacked{}, nil, fmt.Errorf("encoding: truncated bitpack header")
	}
	width := uint(src[0])
	if width == 0 || width > 64 {
		return BitPacked{}, nil, fmt.Errorf("encoding: invalid bitpack width %d", width)
	}
	src = src[1:]
	n, k := Uvarint(src)
	if k <= 0 {
		return BitPacked{}, nil, fmt.Errorf("encoding: truncated bitpack count")
	}
	src = src[k:]
	// Bound the count by the bytes actually present, so n*width cannot
	// overflow below.
	if n > uint64(len(src))*8/uint64(width) {
		return BitPacked{}, nil, fmt.Errorf("encoding: bitpack count %d exceeds input (%d bytes at width %d)", n, len(src), width)
	}
	totalBits := n * uint64(width)
	nw := int((totalBits + 63) / 64)
	if len(src) < nw*8 {
		return BitPacked{}, nil, fmt.Errorf("encoding: truncated bitpack body: want %d words, have %d bytes", nw, len(src))
	}
	return BitPacked{width: width, n: int(n), data: src[: nw*8 : nw*8]}, src[nw*8:], nil
}
