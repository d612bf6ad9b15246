package encoding

// Micro-benchmarks for the storage primitives of Section 4.1: random access
// on bit-packed data (the property that lets COHANA skip users without
// decompression), RLE user-column iteration, and dictionary lookups (the
// binary searches behind chunk pruning).

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func benchData(n int, width uint) []uint64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & (1<<width - 1)
	}
	return out
}

func BenchmarkBitPackedGet(b *testing.B) {
	values := benchData(1<<16, 13)
	packed := PackUint64Width(values, 13)
	idx := rand.New(rand.NewSource(2)).Perm(len(values))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += packed.Get(idx[i%len(idx)])
	}
	_ = sink
}

func BenchmarkBitPackedSequentialSum(b *testing.B) {
	values := benchData(1<<16, 20)
	packed := PackUint64Width(values, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint64
		for k := 0; k < packed.Len(); k++ {
			sum += packed.Get(k)
		}
		_ = sum
	}
}

func BenchmarkUnpackedSequentialSum(b *testing.B) {
	// The decompressed baseline for BenchmarkBitPackedSequentialSum: the
	// price of random-accessible compression is a shift and mask per read.
	values := benchData(1<<16, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint64
		for _, v := range values {
			sum += v
		}
		_ = sum
	}
}

func BenchmarkPack(b *testing.B) {
	values := benchData(1<<16, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackUint64Width(values, 17)
	}
}

func BenchmarkRLEEncodeUserColumn(b *testing.B) {
	// A user column: long runs of repeated ids.
	values := make([]uint64, 1<<16)
	rng := rand.New(rand.NewSource(3))
	id := uint64(0)
	for i := range values {
		if rng.Intn(50) == 0 {
			id++
		}
		values[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeRLE(values)
	}
}

func BenchmarkDictLookup(b *testing.B) {
	words := make([]string, 1024)
	for i := range words {
		words[i] = benchWord(i)
	}
	d := BuildDict(words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Lookup(words[i%len(words)]); !ok {
			b.Fatal("missing word")
		}
	}
}

func BenchmarkChunkDictPruneProbe(b *testing.B) {
	ids := benchData(4096, 24)
	slices.Sort(ids)
	cd, err := ChunkDictFromIDs(slices.Compact(ids))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd.ChunkID(uint64(i) & (1<<24 - 1))
	}
}

func BenchmarkFrameOfRefDecodeGet(b *testing.B) {
	values := make([]int64, 1<<15)
	rng := rand.New(rand.NewSource(4))
	base := int64(1368950400) // timestamps near the dataset's window
	for i := range values {
		values[i] = base + int64(rng.Intn(86400*39))
	}
	f := EncodeFrameOfRef(values)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += f.Get(i % f.Len())
	}
	_ = sink
}

func benchWord(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 0, 8)
	for i > 0 || len(buf) == 0 {
		buf = append(buf, letters[i%26])
		i /= 26
	}
	return string(buf)
}

func BenchmarkBitPackedAppendRange(b *testing.B) {
	// The batch form the run kernels feed on: a whole column span per call.
	for _, width := range []uint{7, 20} {
		packed := PackUint64Width(benchData(1<<16, width), width)
		dst := make([]uint64, 0, packed.Len())
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = packed.AppendRange(dst[:0], 0, packed.Len())
			}
		})
	}
}

// BenchmarkFirstInRuns is the birth search's shape: 32K codes of a ten-code
// alphabet in runs of about 19, one first-match search per run. Width 4 takes
// the word-parallel path, width 12 the scalar one.
func BenchmarkFirstInRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	values := make([]uint64, 1<<15)
	for i := range values {
		values[i] = uint64(rng.Intn(10))
	}
	var lengths []uint32
	for left := len(values); left > 0; {
		l := min(left, 1+rng.Intn(37))
		lengths = append(lengths, uint32(l))
		left -= l
	}
	runs := RLEConsecutive(0, lengths)
	out := make([]uint64, runs.NumRuns())
	for _, width := range []uint{4, 12} {
		packed := PackUint64Width(values, width)
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			for b.Loop() {
				packed.FirstInRuns(7, runs, out)
			}
		})
	}
}
