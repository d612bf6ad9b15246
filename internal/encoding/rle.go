package encoding

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Run is one RLE triple (u, f, n) as described in Section 4.1 of the paper:
// Value appears Length consecutive times starting at row Start of the chunk.
// For the user column the runs are strictly increasing in Start and tile the
// chunk exactly, which is what lets the modified TableScan skip a whole user
// in O(1).
type Run struct {
	Value  uint64 // encoded (dictionary id) value
	Start  uint32 // row index of the first appearance
	Length uint32 // number of consecutive appearances
}

// RLE is a run-length encoded column segment.
type RLE struct {
	runs []Run
	n    int // total decoded length
}

// RLEFromRuns reassembles an RLE segment from parallel (value, length)
// slices, recomputing the run starts — the inverse of reading Run(i). Chunk
// rebuilds use it when a user column's dictionary ids are remapped or when a
// chunk is reloaded from a self-contained segment, so the column never has to
// be decoded to full length just to be re-encoded.
func RLEFromRuns(values []uint64, lengths []uint32) *RLE {
	runs := make([]Run, len(values))
	pos := uint32(0)
	for i, v := range values {
		runs[i] = Run{Value: v, Start: pos, Length: lengths[i]}
		pos += lengths[i]
	}
	return &RLE{runs: runs, n: int(pos)}
}

// RLEConsecutive is RLEFromRuns for runs whose values count up from first:
// run i holds first+i. That is every user column of a lazy table, where a
// chunk's users carry the virtual ids userBase, userBase+1, …
func RLEConsecutive(first uint64, lengths []uint32) *RLE {
	r := new(RLE)
	r.FillConsecutive(first, lengths)
	return r
}

// FillConsecutive makes r the RLEConsecutive of first and lengths, reusing
// r's run storage.
func (r *RLE) FillConsecutive(first uint64, lengths []uint32) {
	r.runs = slices.Grow(r.runs[:0], len(lengths))[:len(lengths)]
	pos := uint32(0)
	for i, l := range lengths {
		r.runs[i] = Run{Value: first + uint64(i), Start: pos, Length: l}
		pos += l
	}
	r.n = int(pos)
}

// NumRuns returns the number of runs (distinct users in a user column).
func (r *RLE) NumRuns() int { return len(r.runs) }

// Len returns the decoded length.
func (r *RLE) Len() int { return r.n }

// Run returns the i-th run.
func (r *RLE) Run(i int) Run { return r.runs[i] }

// Get returns the decoded value at row idx using binary search over runs.
func (r *RLE) Get(idx int) uint64 {
	lo, hi := 0, len(r.runs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(r.runs[mid].Start) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return r.runs[lo].Value
}

// Decode materializes the full column segment.
func (r *RLE) Decode() []uint64 {
	out := make([]uint64, 0, r.n)
	for _, run := range r.runs {
		for k := uint32(0); k < run.Length; k++ {
			out = append(out, run.Value)
		}
	}
	return out
}

// AppendTo serializes the RLE segment: run count, total length, then
// (value, length) uvarint pairs. Start positions are recomputed on decode,
// so they need not be stored.
func (r *RLE) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.runs)))
	dst = binary.AppendUvarint(dst, uint64(r.n))
	for _, run := range r.runs {
		dst = binary.AppendUvarint(dst, run.Value)
		dst = binary.AppendUvarint(dst, uint64(run.Length))
	}
	return dst
}

// DecodeRLEBytes reads an RLE segment produced by AppendTo and returns the
// remaining bytes.
func DecodeRLEBytes(src []byte) (*RLE, []byte, error) {
	nruns, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("encoding: truncated RLE run count")
	}
	src = src[k:]
	total, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("encoding: truncated RLE total")
	}
	src = src[k:]
	// Each run occupies at least two bytes (value + length uvarints); bound
	// the allocation by the input actually present.
	if nruns > uint64(len(src))/2+1 {
		return nil, nil, fmt.Errorf("encoding: RLE run count %d exceeds input (%d bytes)", nruns, len(src))
	}
	runs := make([]Run, nruns)
	pos := uint32(0)
	for i := range runs {
		v, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, nil, fmt.Errorf("encoding: truncated RLE value at run %d", i)
		}
		src = src[k:]
		l, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, nil, fmt.Errorf("encoding: truncated RLE length at run %d", i)
		}
		src = src[k:]
		runs[i] = Run{Value: v, Start: pos, Length: uint32(l)}
		pos += uint32(l)
	}
	if uint64(pos) != total {
		return nil, nil, fmt.Errorf("encoding: RLE length mismatch: runs sum to %d, header says %d", pos, total)
	}
	return &RLE{runs: runs, n: int(total)}, src, nil
}
