package encoding

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitWidth(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1 << 32, 33}, {1<<64 - 1, 64},
	}
	for _, c := range cases {
		if got := BitWidth(c.in); got != c.want {
			t.Errorf("BitWidth(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBitPackedRoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{0, 0, 0},
		{1, 2, 3, 4, 5},
		{1<<64 - 1, 0, 1<<64 - 1},
		{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
	}
	for _, values := range cases {
		b := packUint64(values)
		got := b.unpack()
		if len(values) == 0 {
			if b.Len() != 0 {
				t.Errorf("empty pack has len %d", b.Len())
			}
			continue
		}
		if !reflect.DeepEqual(got, values) {
			t.Errorf("round trip %v -> %v", values, got)
		}
	}
}

func TestBitPackedRandomAccessAcrossWordBoundaries(t *testing.T) {
	// Width 13 guarantees values straddle 64-bit word boundaries.
	values := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(42))
	for i := range values {
		values[i] = uint64(rng.Intn(1 << 13))
	}
	b := PackUint64Width(values, 13)
	for i, want := range values {
		if got := b.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestBitPackedSerialize(t *testing.T) {
	values := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	buf := packUint64(values).AppendTo(nil)
	got, rest, err := DecodeBitPacked(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	if !reflect.DeepEqual(got.unpack(), values) {
		t.Errorf("decode mismatch: %v", got.unpack())
	}
}

func TestBitPackedPropertyRoundTrip(t *testing.T) {
	f := func(values []uint64) bool {
		b := packUint64(values)
		if b.Len() != len(values) {
			return false
		}
		for i, v := range values {
			if b.Get(i) != v {
				return false
			}
		}
		buf := b.AppendTo(nil)
		d, rest, err := DecodeBitPacked(buf)
		if err != nil || len(rest) != 0 || d.Len() != len(values) {
			return false
		}
		for i, v := range values {
			if d.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitPackedWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for value exceeding width")
		}
	}()
	PackUint64Width([]uint64{8}, 3)
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]uint64{
		{},
		{1},
		{1, 1, 1},
		{1, 2, 3},
		{5, 5, 2, 2, 2, 9, 5, 5},
	}
	for _, values := range cases {
		r := encodeRLE(values)
		got := r.Decode()
		if len(values) == 0 {
			if r.Len() != 0 || r.NumRuns() != 0 {
				t.Errorf("empty RLE: len=%d runs=%d", r.Len(), r.NumRuns())
			}
			continue
		}
		if !reflect.DeepEqual(got, values) {
			t.Errorf("RLE round trip %v -> %v", values, got)
		}
		for i, want := range values {
			if g := r.Get(i); g != want {
				t.Errorf("RLE Get(%d) = %d, want %d", i, g, want)
			}
		}
	}
}

func TestRLERuns(t *testing.T) {
	r := encodeRLE([]uint64{7, 7, 7, 3, 3, 9})
	want := []Run{{7, 0, 3}, {3, 3, 2}, {9, 5, 1}}
	for i, w := range want {
		if r.Run(i) != w {
			t.Errorf("run %d = %+v, want %+v", i, r.Run(i), w)
		}
	}
}

func TestRLESerialize(t *testing.T) {
	values := []uint64{1, 1, 2, 2, 2, 2, 3, 1, 1}
	buf := encodeRLE(values).AppendTo(nil)
	got, rest, err := DecodeRLEBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	if !reflect.DeepEqual(got.Decode(), values) {
		t.Errorf("decode mismatch: %v", got.Decode())
	}
}

func TestRLEPropertySerializeRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		// Map to a small alphabet so runs actually occur.
		values := make([]uint64, len(raw))
		for i, b := range raw {
			values[i] = uint64(b % 4)
		}
		buf := encodeRLE(values).AppendTo(nil)
		r, rest, err := DecodeRLEBytes(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		dec := r.Decode()
		if len(dec) != len(values) {
			return false
		}
		for i := range values {
			if dec[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDictLookup(t *testing.T) {
	d := BuildDict([]string{"china", "australia", "china", "usa", "australia"})
	if d.Len() != 3 {
		t.Fatalf("dict len = %d, want 3", d.Len())
	}
	wantOrder := []string{"australia", "china", "usa"}
	if !reflect.DeepEqual(d.Values(), wantOrder) {
		t.Errorf("dict order = %v, want %v", d.Values(), wantOrder)
	}
	for i, v := range wantOrder {
		id, ok := d.Lookup(v)
		if !ok || id != uint64(i) {
			t.Errorf("Lookup(%q) = (%d, %v), want (%d, true)", v, id, ok, i)
		}
		if d.Value(uint64(i)) != v {
			t.Errorf("Value(%d) = %q, want %q", i, d.Value(uint64(i)), v)
		}
	}
	if _, ok := d.Lookup("mars"); ok {
		t.Error("Lookup of absent value succeeded")
	}
}

func TestDictSerialize(t *testing.T) {
	d := BuildDict([]string{"shop", "launch", "fight", "", "shop"})
	buf := d.AppendTo(nil)
	got, rest, err := DecodeDict(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	if !reflect.DeepEqual(got.Values(), d.Values()) {
		t.Errorf("decode mismatch: %v vs %v", got.Values(), d.Values())
	}
}

func TestDictPropertyIDOrderMatchesValueOrder(t *testing.T) {
	f := func(values []string) bool {
		d := BuildDict(values)
		for i := 1; i < d.Len(); i++ {
			if d.Value(uint64(i-1)) >= d.Value(uint64(i)) {
				return false
			}
		}
		for _, v := range values {
			id, ok := d.Lookup(v)
			if !ok || d.Value(id) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunkDict(t *testing.T) {
	cd, err := ChunkDictFromIDs([]uint64{3, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cd.Len() != 3 {
		t.Fatalf("chunk dict len = %d, want 3", cd.Len())
	}
	// Sorted global ids: 3, 7, 10.
	for cid, gid := range []uint64{3, 7, 10} {
		if cd.GlobalID(uint64(cid)) != gid {
			t.Errorf("GlobalID(%d) = %d, want %d", cid, cd.GlobalID(uint64(cid)), gid)
		}
		got, ok := cd.ChunkID(gid)
		if !ok || got != uint64(cid) {
			t.Errorf("ChunkID(%d) = (%d, %v), want (%d, true)", gid, got, ok, cid)
		}
	}
	if _, ok := cd.ChunkID(5); ok {
		t.Error("ChunkID for absent global id succeeded")
	}
	for _, bad := range [][]uint64{{3, 3}, {7, 3}} {
		if _, err := ChunkDictFromIDs(bad); err == nil {
			t.Errorf("ChunkDictFromIDs(%v) accepted ids that are not strictly ascending", bad)
		}
	}
}

func TestChunkDictSerialize(t *testing.T) {
	cd, err := ChunkDictFromIDs([]uint64{2, 3, 57, 100})
	if err != nil {
		t.Fatal(err)
	}
	buf := cd.AppendTo(nil)
	got, rest, err := DecodeChunkDict(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	for cid := 0; cid < cd.Len(); cid++ {
		if got.GlobalID(uint64(cid)) != cd.GlobalID(uint64(cid)) {
			t.Errorf("chunk id %d: got global %d want %d", cid, got.GlobalID(uint64(cid)), cd.GlobalID(uint64(cid)))
		}
	}
}

func TestFrameOfRef(t *testing.T) {
	values := []int64{-5, 100, 42, -5, 0, 99}
	f := EncodeFrameOfRef(values)
	if f.Min() != -5 || f.Max() != 100 {
		t.Errorf("range = [%d, %d], want [-5, 100]", f.Min(), f.Max())
	}
	if !reflect.DeepEqual(f.Decode(), values) {
		t.Errorf("decode = %v", f.Decode())
	}
	for i, want := range values {
		if got := f.Get(i); got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestFrameOfRefEmpty(t *testing.T) {
	f := EncodeFrameOfRef(nil)
	if f.Len() != 0 {
		t.Errorf("empty frame len = %d", f.Len())
	}
	buf := f.AppendTo(nil)
	got, _, err := DecodeFrameOfRef(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("decoded empty frame len = %d", got.Len())
	}
}

func TestFrameOfRefSerialize(t *testing.T) {
	values := []int64{1368950400, 1368950460, 1369000000, 1368950400}
	buf := EncodeFrameOfRef(values).AppendTo(nil)
	got, rest, err := DecodeFrameOfRef(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %d", len(rest))
	}
	if !reflect.DeepEqual(got.Decode(), values) {
		t.Errorf("decode mismatch: %v", got.Decode())
	}
}

func TestFrameOfRefPropertyRoundTrip(t *testing.T) {
	f := func(values []int64) bool {
		// Keep ranges sane: the encoder's delta must fit uint64, which holds
		// for any int64 pair, but quick can generate extremes; that is the
		// interesting case, so use them as-is.
		enc := EncodeFrameOfRef(values)
		buf := enc.AppendTo(nil)
		dec, rest, err := DecodeFrameOfRef(buf)
		if err != nil || len(rest) != 0 || dec.Len() != len(values) {
			return false
		}
		for i, v := range values {
			if dec.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeBitPacked(nil); err == nil {
		t.Error("DecodeBitPacked(nil) succeeded")
	}
	if _, _, err := DecodeBitPacked([]byte{0}); err == nil {
		t.Error("DecodeBitPacked with zero width succeeded")
	}
	if _, _, err := DecodeBitPacked([]byte{8, 200}); err == nil {
		t.Error("DecodeBitPacked with truncated body succeeded")
	}
	if _, _, err := DecodeRLEBytes(nil); err == nil {
		t.Error("DecodeRLEBytes(nil) succeeded")
	}
	if _, _, err := DecodeDict(nil); err == nil {
		t.Error("DecodeDict(nil) succeeded")
	}
	if _, _, err := DecodeChunkDict(nil); err == nil {
		t.Error("DecodeChunkDict(nil) succeeded")
	}
	if _, _, err := DecodeFrameOfRef(nil); err == nil {
		t.Error("DecodeFrameOfRef(nil) succeeded")
	}
}

func TestBitPackedAppendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, width := range []uint{1, 3, 7, 8, 13, 31, 33, 56, 57, 58, 63, 64} {
		n := 200
		values := make([]uint64, n)
		for i := range values {
			values[i] = rng.Uint64()
			if width < 64 {
				values[i] &= 1<<width - 1
			}
		}
		b := PackUint64Width(values, width)
		// Whole-array extraction equals Get, and sub-spans (including spans
		// that start and end mid-word) slice it exactly.
		got := b.AppendRange(nil, 0, n)
		for i, v := range values {
			if got[i] != v {
				t.Fatalf("width %d: AppendRange[%d] = %d, want %d", width, i, got[i], v)
			}
		}
		for trial := 0; trial < 50; trial++ {
			start := rng.Intn(n + 1)
			end := start + rng.Intn(n+1-start)
			span := b.AppendRange(nil, start, end)
			if len(span) != end-start {
				t.Fatalf("width %d: span [%d,%d) has %d values", width, start, end, len(span))
			}
			for i, v := range span {
				if v != values[start+i] {
					t.Fatalf("width %d: span [%d,%d) pos %d = %d, want %d",
						width, start, end, i, v, values[start+i])
				}
			}
		}
		// Appending extends dst rather than replacing it.
		prefix := []uint64{7, 8, 9}
		ext := b.AppendRange(prefix, 0, 2)
		if len(ext) != 5 || ext[0] != 7 || ext[3] != values[0] {
			t.Fatalf("width %d: AppendRange did not append: %v", width, ext)
		}
	}
}

// firstInRunsScalar is FirstInRuns' reference: each run scanned value by
// value for its first v, counting the compares.
func firstInRunsScalar(values []uint64, runs *RLE, v uint64) (out []uint64, compared int64) {
	out = make([]uint64, runs.NumRuns())
	for i := range out {
		r := runs.Run(i)
		for p := int(r.Start); p < int(r.Start+r.Length); p++ {
			compared++
			if values[p] == v {
				out[i] = uint64(p) + 1
				break
			}
		}
	}
	return out, compared
}

// checkFirstInRuns runs FirstInRuns over a stale out buffer, so a miss must
// be written as 0, and compares its matches and compare count with the
// scalar reference.
func checkFirstInRuns(t *testing.T, values []uint64, width uint, lengths []uint32, v uint64) {
	t.Helper()
	runs := RLEConsecutive(0, lengths)
	got := make([]uint64, len(lengths))
	for i := range got {
		got[i] = 1<<64 - 1
	}
	compared := PackUint64Width(values, width).FirstInRuns(v, runs, got)
	want, wantCompared := firstInRunsScalar(values, runs, v)
	if !reflect.DeepEqual(got, want) || compared != wantCompared {
		t.Fatalf("width %d, v %d, runs %v: FirstInRuns = %v comparing %d, want %v comparing %d",
			width, v, lengths, got, compared, want, wantCompared)
	}
}

// TestBitPackedFirstInRuns pins the per-run first-match search to a linear
// scan over the plain values, on small alphabets (so hits are common) at
// every width class: the word-parallel path (1, 3, 8), the one-load scalar
// path (13, 57), the Get fallback (58, 64), and the last 7 bytes, which the
// final runs of every tiling reach. Tilings mix empty, short and long runs;
// v is sometimes never packed, or needs more bits than the width holds.
func TestBitPackedFirstInRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{1, 3, 8, 13, 57, 58, 64} {
		n := 150
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(rng.Intn(5))
			if width == 64 && i%7 == 0 {
				values[i] = 1<<64 - 1 - uint64(rng.Intn(2))
			}
			if width < 64 {
				values[i] &= 1<<width - 1
			}
		}
		for trial := 0; trial < 300; trial++ {
			var lengths []uint32
			for left := n; left > 0; {
				l := min(left, rng.Intn(1+[]int{3, 20, n}[trial%3]))
				lengths = append(lengths, uint32(l))
				left -= l
			}
			v := values[rng.Intn(n)]
			switch trial % 10 {
			case 0:
				v = 99 // never packed: a miss
			case 1:
				if width < 64 {
					v = 1 << width // wider than a code
				}
			}
			checkFirstInRuns(t, values, width, lengths, v)
		}
		// One needle in a haystack at every position, in a run starting at
		// many offsets before it: a step that reads too many lanes, or
		// resumes at the wrong position, misses or misplaces it.
		hay := make([]uint64, n)
		for needle := range hay {
			for i := range hay {
				hay[i] = 1
			}
			hay[needle] = 2 & (1<<width - 1)
			for start := 0; start <= needle; start += 1 + start/8 {
				checkFirstInRuns(t, hay, width, []uint32{uint32(start), uint32(n - start)}, hay[needle])
			}
		}
	}
}

// FuzzFirstInRuns checks FirstInRuns against the scalar reference at every
// width 1-64, over run tilings taken from the input (zero bytes are empty
// runs) and values drawn from a four-code alphabet plus v itself, so hits,
// misses, runs ending in the last 7 bytes and v >= 1<<width all occur.
func FuzzFirstInRuns(f *testing.F) {
	f.Add(uint8(4), uint64(2), int64(1), []byte{19, 0, 19, 1, 40, 7})
	f.Add(uint8(1), uint64(0), int64(2), []byte{0, 3, 0, 7})
	f.Add(uint8(8), uint64(300), int64(3), []byte{200, 60})
	f.Add(uint8(57), uint64(3), int64(4), []byte{5, 5, 5, 5})
	f.Add(uint8(64), uint64(1<<63), int64(5), []byte{9, 1, 30})
	f.Fuzz(func(t *testing.T, width uint8, v uint64, seed int64, runBytes []byte) {
		w := uint(width%64) + 1
		if len(runBytes) > 512 {
			runBytes = runBytes[:512]
		}
		lengths := make([]uint32, len(runBytes))
		n := 0
		for i, l := range runBytes {
			lengths[i] = uint32(l)
			n += int(l)
		}
		mask := uint64(1)<<w - 1
		rng := rand.New(rand.NewSource(seed))
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(rng.Intn(4)) & mask
			if rng.Intn(8) == 0 {
				values[i] = v & mask
			}
		}
		checkFirstInRuns(t, values, w, lengths, v)
	})
}

func TestFrameOfRefAppendRaw(t *testing.T) {
	values := []int64{-40, -40, -39, 0, 13, 13, 13, 90, -40}
	f := EncodeFrameOfRef(values)
	raw := f.AppendRaw(nil, 0, len(values))
	for i := range values {
		if raw[i] != f.Raw(i) {
			t.Fatalf("AppendRaw[%d] = %d, want Raw = %d", i, raw[i], f.Raw(i))
		}
		if int64(raw[i])+f.Min() != values[i] {
			t.Fatalf("delta %d does not reconstruct %d", raw[i], values[i])
		}
	}
	if sub := f.AppendRaw(nil, 2, 5); len(sub) != 3 || sub[0] != f.Raw(2) {
		t.Fatalf("AppendRaw sub-span wrong: %v", sub)
	}
}

func TestCanonicalVarints(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 40, math.MaxUint64} {
		buf := binary.AppendUvarint(nil, v)
		if got, n := Uvarint(buf); got != v || n != len(buf) {
			t.Errorf("Uvarint(%x) = %d, %d; want %d, %d", buf, got, n, v, len(buf))
		}
	}
	for _, v := range []int64{0, -1, 63, -64, 64, math.MinInt64, math.MaxInt64} {
		buf := binary.AppendVarint(nil, v)
		if got, n := Varint(buf); got != v || n != len(buf) {
			t.Errorf("Varint(%x) = %d, %d; want %d, %d", buf, got, n, v, len(buf))
		}
	}
	// The same values padded with a redundant zero group decode with
	// encoding/binary but must not here; neither must truncated input.
	for _, buf := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0xff, 0x80, 0x00}, {0x80}, {}} {
		if _, n := Uvarint(buf); n > 0 {
			t.Errorf("Uvarint(%x) accepted %d bytes", buf, n)
		}
		if _, n := Varint(buf); n > 0 {
			t.Errorf("Varint(%x) accepted %d bytes", buf, n)
		}
	}
	// A padded count inside a packed array is rejected the same way.
	good := packUint64([]uint64{1, 2, 3}).AppendTo(nil)
	padded := append([]byte{good[0], good[1] | 0x80, 0x00}, good[2:]...)
	if _, _, err := DecodeBitPacked(padded); err == nil {
		t.Error("DecodeBitPacked accepted a non-minimal count")
	}
}

func TestDecodeBitPackedAliasesSource(t *testing.T) {
	// The decoded array is a view of the serialized bytes, not a copy: the
	// resident form of a column is its on-disk form.
	values := []uint64{5, 0, 1023, 77, 512}
	buf := packUint64(values).AppendTo([]byte("prefix"))
	got, rest, err := DecodeBitPacked(buf[len("prefix"):])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: err=%v rest=%d", err, len(rest))
	}
	if &got.data[len(got.data)-1] != &buf[len(buf)-1] {
		t.Fatal("decoded words do not alias the source buffer")
	}
	if again := got.AppendTo([]byte("prefix")); !reflect.DeepEqual(again, buf) {
		t.Fatalf("re-serialized %x, want %x", again, buf)
	}
	f, _, err := DecodeFrameOfRef(EncodeFrameOfRef([]int64{-3, 9, 4}).AppendTo(nil))
	if err != nil || !reflect.DeepEqual(f.Decode(), []int64{-3, 9, 4}) {
		t.Fatalf("frame round trip: %v %v", f.Decode(), err)
	}
}

// TestPackerMatchesPackUint64 feeds a packer in pieces of every shape and
// checks the bytes against the one-shot packer, for the widths where a value
// ends on, straddles and fills a 64-bit word.
func TestPackerMatchesPackUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{1, 3, 7, 8, 13, 31, 32, 33, 57, 63, 64} {
		n := 1 + rng.Intn(300)
		table := make([]uint32, 40)
		for i := range table {
			table[i] = uint32(rng.Uint64() & (1<<min(width, 32) - 1))
		}
		codes := make([]uint32, n)
		ints := make([]int64, n)
		base := int64(rng.Uint64())
		wantMapped := make([]uint64, n)
		wantDeltas := make([]uint64, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(len(table)))
			wantMapped[i] = uint64(table[codes[i]])
			wantDeltas[i] = rng.Uint64()
			if width < 64 {
				wantDeltas[i] &= 1<<width - 1
			}
			ints[i] = base + int64(wantDeltas[i]) // wraps like the encoder's subtraction
		}
		mapped, deltas := newPacker(n, width), newPacker(n, width)
		for lo := 0; lo < n; {
			hi := min(n, lo+rng.Intn(9))
			mapped.appendMapped(codes[lo:hi], table)
			deltas.appendDeltas(ints[lo:hi], base)
			lo = hi
		}
		for name, c := range map[string]struct {
			got  BitPacked
			want []uint64
		}{"mapped": {mapped.finish(), wantMapped}, "deltas": {deltas.finish(), wantDeltas}} {
			want := PackUint64Width(c.want, width).AppendTo(nil)
			if got := c.got.AppendTo(nil); !reflect.DeepEqual(got, want) {
				t.Errorf("width %d %s: packer bytes differ from PackUint64Width", width, name)
			}
		}
	}
}

func TestPackerFinishChecksCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("finish accepted fewer values than announced")
		}
	}()
	p := newPacker(3, 4)
	p.appendMapped([]uint32{0, 0}, []uint32{5})
	p.finish()
}

// TestDictGrowMatchesBuildDict pins Grow against the definition: the
// dictionary of all the values, and a remap that follows every old value.
func TestDictGrowMatchesBuildDict(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	word := func() string { return string(rune('a'+rng.Intn(6))) + string(rune('a'+rng.Intn(6))) }
	for round := 0; round < 200; round++ {
		old := make([]string, rng.Intn(12))
		for i := range old {
			old[i] = word()
		}
		batch := make([]string, rng.Intn(12))
		for i := range batch {
			if batch[i] = word(); i > 0 && rng.Intn(3) == 0 {
				batch[i] = batch[i-1]
			}
		}
		if rng.Intn(4) == 0 {
			batch = append(batch, "")
		}
		d := BuildDict(old)
		grown, remap := d.Grow(batch)
		want := BuildDict(append(append([]string(nil), old...), batch...))
		if !reflect.DeepEqual(grown.Values(), want.Values()) {
			t.Fatalf("Grow(%q) over %q = %q, want %q", batch, d.Values(), grown.Values(), want.Values())
		}
		if grown.Len() == d.Len() {
			if grown != d || remap != nil {
				t.Fatalf("Grow with nothing new returned a new dictionary or a remap")
			}
			continue
		}
		for id, v := range d.Values() {
			if grown.Value(remap[id]) != v {
				t.Fatalf("remap[%d] = %d names %q, want %q", id, remap[id], grown.Value(remap[id]), v)
			}
		}
	}
}

// TestEncoderOverRanges drives both column encoders over row ranges of a
// source column and checks them against the one-shot encoders run on the same
// rows, twice, so that the second round runs on reused scratch.
func TestEncoderOverRanges(t *testing.T) {
	strs := []string{"skip", "shop", "shop", "", "launch", "skip", "skip", "launch", "shop", "fight", "", "skip"}
	ints := []int64{1 << 50, -3, -3, 9, math.MinInt64, 7, 7, math.MaxInt64, 0, 4, 4, -1 << 50}
	for _, ranges := range [][]Range{
		{{1, 5}, {7, 11}},
		{{1, 5}},
		{{3, 4}},
		{{0, 0}},
		nil,
	} {
		var wantStrs []string
		var wantInts []int64
		for _, r := range ranges {
			wantStrs = append(wantStrs, strs[r.Lo:r.Hi]...)
			wantInts = append(wantInts, ints[r.Lo:r.Hi]...)
		}
		dict := BuildDict(wantStrs)
		wantIDs := make([]uint64, len(wantStrs))
		for i, v := range wantStrs {
			wantIDs[i], _ = dict.Lookup(v)
		}
		var e Encoder
		for round := 0; round < 2; round++ {
			sorted, ids := e.EncodeStrings(strs, ranges)
			if !reflect.DeepEqual(sorted, dict.Values()) {
				t.Fatalf("ranges %v: values %q, want %q", ranges, sorted, dict.Values())
			}
			if !reflect.DeepEqual(ids.AppendTo(nil), packUint64(wantIDs).AppendTo(nil)) {
				t.Fatalf("ranges %v: chunk-ids %v, want %v", ranges, ids.unpack(), wantIDs)
			}
			frame := e.EncodeInts(ints, ranges)
			if !reflect.DeepEqual(frame.AppendTo(nil), EncodeFrameOfRef(wantInts).AppendTo(nil)) {
				t.Fatalf("ranges %v: frame decodes to %v, want %v", ranges, frame.Decode(), wantInts)
			}
		}
	}
}

// packUint64 packs values using the minimum width that fits the largest
// element.
func packUint64(values []uint64) *BitPacked {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	return PackUint64Width(values, BitWidth(max))
}

// unpack materializes all values into a fresh slice.
func (b *BitPacked) unpack() []uint64 {
	out := make([]uint64, b.n)
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}

// encodeRLE run-length encodes values.
func encodeRLE(values []uint64) *RLE {
	var runs []Run
	for i := 0; i < len(values); {
		j := i + 1
		for j < len(values) && values[j] == values[i] {
			j++
		}
		runs = append(runs, Run{Value: values[i], Start: uint32(i), Length: uint32(j - i)})
		i = j
	}
	return &RLE{runs: runs, n: len(values)}
}
