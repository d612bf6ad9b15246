package encoding

import "encoding/binary"

// Uvarint is binary.Uvarint restricted to minimal encodings: a value padded
// with a redundant trailing zero group is reported like a truncated one
// (n <= 0). The segment decoders read every count and length through it, so
// a value has exactly one accepted byte form and a decoded segment
// re-serializes to the bytes it was read from — the property content-hash
// naming relies on.
func Uvarint(src []byte) (uint64, int) {
	v, n := binary.Uvarint(src)
	if n > 1 && src[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// Varint is binary.Varint under the same minimal-encoding rule as Uvarint.
func Varint(src []byte) (int64, int) {
	v, n := binary.Varint(src)
	if n > 1 && src[n-1] == 0 {
		return 0, 0
	}
	return v, n
}
