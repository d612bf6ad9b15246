package cohort

// The chunk kernel: Algorithms 1 and 2 run over one chunk, user block at a
// time. The storage format of Section 4.1 keeps each user's tuples together
// and time-ordered, so the birth tuple, the ages and the rows a query can
// aggregate all follow from the block's packed codes, and scanPinned selects
// first and decodes only what the selected rows need:
//
//   - GetBirthTuple reads the chunk's birth index for the birth action (see
//     storage.BirthIndex): each user's birth row and its raw time code, found
//     by the packed-code birth search on the first scan that needs them and
//     kept with the chunk. σb's pushed time range is tested on the indexed
//     code (§4.2), so a user never born, or born outside the range, costs one
//     array read and one compare and its user run and block are never read
//     (§4.3); only the survivors read their run and the rest of σb on the
//     birth row's codes;
//   - binding a chunk turns every string conjunct of σb and σg into a verdict
//     table indexed by chunk-id, one kernel call per distinct id of the
//     chunk; σb's birth-row check and σg's selection read the same tables;
//   - the decode window of a qualified user starts at the birth row (earlier
//     rows have age <= 0 and are never aggregated) and ends at the age bound
//     the pushed AGE conjuncts imply, found by a binary search on the packed
//     time codes; the rows past it are counted as RowsSkippedByAge, and the
//     upper-bound AGE conjuncts, which the cut enforces exactly, are never
//     evaluated;
//   - σg's pushed column conjuncts narrow a selection of window offsets one
//     conjunct after another: the first filters the window's decoded codes,
//     each later one only the survivors' codes, and an empty selection ends
//     the user;
//   - only the survivors pay for time codes, ages, measures and the
//     residual. Their time codes are read one by one when the selection is
//     sparse, by one window decode otherwise; same-age spans end at the
//     first timestamp of the next age, so AgeOf (one division) and the
//     remaining AGE conjuncts run once per span and the span walk is one
//     compare per survivor;
//   - with no per-row work left (no residual, only COUNT and USER_COUNT) a
//     span of survivors folds whole: its length into COUNT and one user into
//     USER_COUNT;
//   - when every cohort key is a string column, the birth row's key chunk-ids
//     index a per-chunk cohort memo, so the key bytes are built and the
//     accumulator probed once per distinct cohort in the chunk, not per user.
//
// Residual conjuncts (Birth() references, OR trees, …) still run per
// surviving row through the generic expr path. A row-scan oracle over the
// materialized table (rowquery_test.go) is the reference the kernel must
// match bit for bit — the fuzz target pins exactly that. Survivors fold in
// row order, as the reference's rows do, so float sums agree.

import (
	"math"
	"sync"

	"repro/internal/encoding"
	"repro/internal/storage"
)

// chunkScratch bundles every allocation a chunk scan needs — the expr
// environment, the cohort-key buffer, the verdict tables, the selection and
// code buffers and the cohort memo — so executors reuse one set per chunk
// task instead of allocating per chunk. Recycled through scratchPool.
type chunkScratch struct {
	env    chunkEnv
	keyBuf []byte

	// verdicts is the arena of the bound chunk's verdict tables, one per
	// string conjunct of σb and σg that the chunk does not settle (see
	// pushdown.bindVec); the vecConds of act and of σb's birth-row check
	// slice into it.
	verdicts []bool
	// act is σg's column conjuncts the chunk does not settle, in query
	// order: the selection's filters.
	act []vecCond
	// sel is the selection: the offsets into the current decode window of
	// the rows every conjunct of act admits so far, in row order. iota is
	// 0, 1, 2, …: the selection before any filter, grown on demand and
	// never rewritten.
	sel  []int32
	iota []int32
	// codeBuf holds one conjunct's codes: the whole window's for the first
	// conjunct, the survivors' for each later one. timeBuf holds the
	// survivors' raw time codes, aligned with sel.
	codeBuf []uint64
	timeBuf []uint64

	// memo is the per-chunk cohort memo: the cohort state of the birth rows
	// whose key chunk-ids give slot Σ id[k]×memoStride[k] (see bindMemo).
	memo       []*cohortState
	memoCols   []int
	memoStride []int
}

var scratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

func getScratch() *chunkScratch { return scratchPool.Get().(*chunkScratch) }

// putScratch returns scr to the pool, dropping the table/chunk references so
// a pooled scratch never keeps a lazily-loaded segment reachable across
// queries — the bound kernels in act capture the chunk, and the cohort memo
// points into the caller's accumulator, so both are cleared too. The tables
// and buffers keep their capacity — that is the point.
func putScratch(scr *chunkScratch) {
	scr.env = chunkEnv{}
	clear(scr.act)
	scr.act = scr.act[:0]
	clear(scr.memo)
	scratchPool.Put(scr)
}

// identity returns the selection of every row of a w-row window.
func (scr *chunkScratch) identity(w int) []int32 {
	for i := len(scr.iota); i < w; i++ {
		scr.iota = append(scr.iota, int32(i))
	}
	return scr.iota[:w]
}

// growSlice returns a slice of length n, preserving s's backing array when
// its capacity suffices. Contents are unspecified — callers fully initialize.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bindMemo prepares the cohort memo for chunk ch when every cohort key is a
// string column that is not binned time: a birth row's key chunk-ids, read
// in mixed radix over the chunk's dictionary sizes, index a dense table of
// cohort states. It reports false — the caller then keys every user through
// appendKey — for time-binned or integer keys, or when the table would
// outgrow the chunk (its clear must stay cheap next to the scan). Keys stay
// value-encoded in the accumulator: chunk-ids of the sealed and the union
// table name different values.
func (scr *chunkScratch) bindMemo(keys []keySpec, ch *storage.Chunk) bool {
	scr.memoCols, scr.memoStride = scr.memoCols[:0], scr.memoStride[:0]
	size, limit := 1, max(ch.NumRows(), 256)
	for _, k := range keys {
		if k.isTime || !k.isString {
			return false
		}
		scr.memoCols = append(scr.memoCols, k.col)
		scr.memoStride = append(scr.memoStride, size)
		if size *= ch.ChunkCardinality(k.col); size > limit {
			return false
		}
	}
	scr.memo = growSlice(scr.memo, size)
	clear(scr.memo)
	return true
}

// memoSlot returns the cohort-memo slot of the user born at birthRow.
func (scr *chunkScratch) memoSlot(ch *storage.Chunk, birthRow int) int {
	slot := 0
	for i, col := range scr.memoCols {
		slot += int(ch.ChunkID(col, birthRow)) * scr.memoStride[i]
	}
	return slot
}

// ageCutRow returns the end of a decode window that starts at birthRow: the
// first row of [birthRow, end) older than maxAge. Ages are
// (t - birth)/unit + 1 past the birth instant, so that is the first time
// delta >= bRaw + maxAge×unit, found by a binary search on the block's
// sorted packed time codes. The sum saturates: a bound past every
// representable time cuts nothing.
func ageCutRow(tf *encoding.FrameOfRef, birthRow, end int, bRaw uint64, maxAge, unit int64) int {
	if maxAge < 1 {
		return birthRow // no age the query aggregates is admitted
	}
	if uint64(maxAge) > (math.MaxUint64-bRaw)/uint64(unit) {
		return end
	}
	limit := bRaw + uint64(maxAge)*uint64(unit)
	lo, hi := birthRow+1, end // the birth row itself has age 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tf.Raw(mid) < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// denseSelection reports whether the n selected rows of a w-row decode
// window are read more cheaply by one decode of the whole window than one
// by one. A single read (BitPacked.Get) re-derives its bit position and
// takes ~3.1 ns; a window decode streams ~1.8 ns a value at the windows'
// typical 20 rows (Xeon, 2 vCPU), and compacting it to the selection adds
// ~0.5 ns a selected value. One by one wins below two thirds of the window.
func denseSelection(n, w int) bool { return 3*n >= 2*w }

// selectedCodes returns column col's raw codes — chunk-ids of a string
// column, frame-of-reference deltas otherwise — at the selected offsets of
// the w-row window starting at row wStart, aligned with sel, in dst's
// storage. dense reports that it decoded the whole window.
func selectedCodes(dst []uint64, ch *storage.Chunk, col int, isString bool, wStart, w int, sel []int32) (codes []uint64, dense bool) {
	if denseSelection(len(sel), w) {
		if isString {
			dst = ch.AppendChunkIDs(dst[:0], col, wStart, wStart+w)
		} else {
			dst = ch.AppendRawInts(dst[:0], col, wStart, wStart+w)
		}
		if len(sel) < w {
			// Compact in place: sel increases, so sel[k] >= k and every
			// position still to be read is unwritten.
			for k, s := range sel {
				dst[k] = dst[s]
			}
			dst = dst[:len(sel)]
		}
		return dst, true
	}
	dst = growSlice(dst, len(sel))
	if isString {
		for k, s := range sel {
			dst[k] = ch.ChunkID(col, wStart+int(s))
		}
	} else {
		f := ch.Ints(col)
		for k, s := range sel {
			dst[k] = f.Raw(wStart + int(s))
		}
	}
	return dst, false
}

// filter writes to dst the offsets of src whose codes, aligned with src, vc
// admits, and returns them with the kernel calls it made (a verdict-table
// load is not one). dst may be src itself: it is written at or behind the
// position read.
func (vc *vecCond) filter(dst, src []int32, codes []uint64) ([]int32, int64) {
	k := 0
	if tbl := vc.verdicts; tbl != nil {
		for j, code := range codes {
			if tbl[code] {
				dst[k] = src[j]
				k++
			}
		}
		return dst[:k], 0
	}
	for j, code := range codes {
		if vc.kernel(code) {
			dst[k] = src[j]
			k++
		}
	}
	return dst[:k], int64(len(codes))
}

// scanPinned executes the fused σb → σg → γc pipeline (Algorithms 1 and 2)
// over ch, a chunk of c's table the caller holds pinned, folding into acc,
// and returns the chunk's decoder-level tallies. Callers should consult
// CanSkipChunk first; scanPinned is still correct without it, just slower.
// skipUsers holds user global-ids to skip: a live shard's sealed entries
// pass the users that have fresh delta tuples — their sealed rows are
// scanned together with the delta in the union table instead, so no user is
// aggregated twice.
func (c *Compiled) scanPinned(ch *storage.Chunk, acc *Accumulator, skipUsers map[uint64]bool) ChunkStats {
	if !c.birthOK {
		return ChunkStats{}
	}
	actionCol := c.schema.ActionCol()
	timeCol := c.schema.TimeCol()
	birthCID, inChunk := ch.ChunkIDOf(actionCol, c.birthGID)
	if !inChunk {
		return ChunkStats{} // no user here ever performs the birth action
	}
	tf := ch.Ints(timeCol)
	// σb's pushed time range as a window of raw time codes: a birth time
	// code t is in it iff t-tLo <= tSpan (the full domain when σb pushes
	// no time range, or the range covers the chunk).
	tLo, tSpan, timed := uint64(0), uint64(math.MaxUint64), false
	if c.birthTime != nil {
		lo, span, verdict, isConst := c.birthTime.bindCodes(tf)
		if isConst && !verdict {
			return ChunkStats{UsersSkippedByBirth: int64(ch.NumUsers())}
		}
		if !isConst {
			tLo, tSpan, timed = lo, span, true
		}
	}
	scr := getScratch()
	defer putScratch(scr)
	var st ChunkStats
	env := &scr.env
	*env = chunkEnv{tbl: c.tbl, ch: ch, schema: c.schema, decoded: &st.ValueBytesDecoded}

	// Bind both pushdowns to the chunk: their string conjuncts become
	// verdict tables in one arena, built once and read by σb's birth-row
	// check and σg's selection alike. The per-row tails: pushed conjuncts
	// leave a residual; with nothing pushable the whole σb / σg predicate
	// runs there.
	var vBirth, vAge boundVec
	var ageChecks []func(int64) bool
	birthResidual, ageResidual := c.birthPred, c.agePred
	scr.verdicts = scr.verdicts[:0]
	if c.birthPush != nil {
		vBirth, scr.verdicts = c.birthPush.bindVec(ch, scr.verdicts)
		birthResidual = vBirth.residual
	}
	birthRowCheck := len(vBirth.cols) > 0 || len(vBirth.ageConds) > 0
	if c.agePush != nil {
		vAge, scr.verdicts = c.agePush.bindVec(ch, scr.verdicts)
		ageResidual = vAge.residual
		ageChecks = c.agePush.ageChecks
	}
	st.EncodedChecks += int64(len(scr.verdicts))
	tmin := tf.Min()
	unitSecs := c.unit.Seconds()
	ageCut := c.agePush != nil && c.agePush.hasMaxAge

	// The selection's filters: conjuncts the chunk settles either fail
	// every row of the chunk (constFalse) or pass unconditionally and drop
	// out.
	act := scr.act[:0]
	constFalse := false
	for _, vc := range vAge.cols {
		if vc.settled() {
			constFalse = constFalse || !vc.verdict
			continue
		}
		act = append(act, vc)
	}
	scr.act = act
	nAggs := len(c.aggs)
	// With no per-row work left — no residual, no measure — a span of
	// survivors folds whole.
	spanFold := ageResidual == nil
	for ai := range c.aggs {
		if fn := c.aggs[ai].fn; fn != Count && fn != UserCount {
			spanFold = false
		}
	}
	useMemo := scr.bindMemo(c.keys, ch)
	keyBuf := scr.keyBuf

	// GetBirthTuple for every user of the chunk: the first row performing
	// the birth action is the birth tuple (time-ordering property). The
	// search runs once per chunk and action; later scans only read it.
	births, searched := ch.BirthIndex(actionCol, timeCol, birthCID)
	st.EncodedChecks += searched

	// The modified TableScan of Section 4.3: one (u, f, n) triple of the RLE
	// user column per user block, read only for a user σb's time range
	// admits, so skipping any other user is moving on to the next entry.
	for u, nu := 0, ch.NumUsers(); u < nu; u++ {
		birthRow, bRaw, born := births.Birth(u)
		if !born || bRaw-tLo > tSpan {
			st.UsersSkippedByBirth++
			continue
		}
		if timed {
			st.EncodedChecks++
		}
		gid, first, n := ch.UserRun(u)
		end := first + n
		if skipUsers != nil && skipUsers[gid] {
			continue
		}
		env.userGID = gid
		env.birth = birthRow
		// The rest of σb touches the birth tuple only: the same verdict
		// tables and kernels, applied to that one row's codes, then the
		// residual; an unqualified user's whole block is skipped.
		if birthRowCheck {
			st.EncodedChecks++
			if !vBirth.passRow(ch, birthRow, 0) {
				continue
			}
		}
		if birthResidual != nil {
			env.row, env.age = birthRow, 0
			if !birthResidual(env) {
				continue
			}
		}
		birthTime := tmin + int64(bRaw)
		var cs *cohortState
		slot := -1
		if useMemo {
			slot = scr.memoSlot(ch, birthRow)
			cs = scr.memo[slot]
		}
		if cs == nil {
			keyBuf = c.appendKey(keyBuf[:0], ch, birthRow, birthTime)
			cs = acc.cohortBytes(keyBuf, func() []string { return c.displayKey(ch, birthRow, birthTime) })
			if slot >= 0 {
				scr.memo[slot] = cs
			}
		}
		cs.size++ // Hc[d_b[L]]++
		if constFalse {
			continue // a chunk-constant conjunct rejects every activity tuple
		}

		// The decode window: from the birth row to the age bound.
		wStart, wEnd := birthRow, end
		if ageCut {
			wEnd = ageCutRow(tf, birthRow, end, bRaw, c.agePush.maxAge, unitSecs)
		}
		st.RowsSkippedByAge += int64(end - wEnd)
		w := wEnd - wStart
		if w == 0 {
			continue
		}
		st.RowsScanned += int64(w)
		st.RowsBatched += int64(w)

		// Selection: the window's offsets, narrowed by each pushed column
		// conjunct in turn — the first reads the whole window's codes, each
		// later one only the survivors'.
		sel := scr.identity(w)
		if len(act) > 0 {
			scr.sel = growSlice(scr.sel, w)
			for ci := range act {
				scr.codeBuf, _ = selectedCodes(scr.codeBuf, ch, act[ci].col, act[ci].isString, wStart, w, sel)
				var calls int64
				sel, calls = act[ci].filter(scr.sel, sel, scr.codeBuf)
				st.EncodedChecks += calls
				if len(sel) == 0 {
					break
				}
			}
			if len(sel) == 0 {
				continue
			}
		}
		// Only the survivors' time codes are read (raw frame-of-reference
		// deltas: ts = tmin + traw[k]), or the window's when that is cheaper.
		traw, dense := selectedCodes(scr.timeBuf, ch, timeCol, false, wStart, w, sel)
		scr.timeBuf = traw
		if dense {
			st.ValueBytesDecoded += 8 * int64(w)
		} else {
			st.ValueBytesDecoded += 8 * int64(len(sel))
		}

		// Age selection off the sorted time column, over the survivors: one
		// AgeOf per maximal same-age span of them, then the span end is the
		// first timestamp of the next age — one integer compare per
		// survivor. Each span resolves its AGE verdict and aggregation
		// bucket once.
		for k, ns := 0, len(sel); k < ns; {
			age := AgeOf(tmin+int64(traw[k]), birthTime, c.unit)
			// First timestamp with a greater age, as a raw delta: birth+1
			// for the birth instant (0), the next unit boundary otherwise.
			thresh := birthTime + 1 - tmin
			if age > 0 {
				thresh = birthTime + age*unitSecs - tmin
			}
			spanEnd := k + 1
			for spanEnd < ns && int64(traw[spanEnd]) < thresh {
				spanEnd++
			}
			st.RunsEvaluated++
			if age <= 0 {
				k = spanEnd
				continue
			}
			if len(ageChecks) > 0 {
				st.EncodedChecks++
				if !passAges(ageChecks, age) {
					k = spanEnd
					continue
				}
			}
			if spanFold {
				b := cs.bucket(age, nAggs)
				for ai := range c.aggs {
					if c.aggs[ai].fn == Count {
						b[ai].cnt += int64(spanEnd - k)
					} else {
						b[ai].users++
					}
				}
				k = spanEnd
				continue
			}
			var b []aggState // resolved at the span's first row past the residual
			if ageResidual != nil {
				env.age = age
			}
			for ; k < spanEnd; k++ {
				row := wStart + int(sel[k])
				// Residual conjuncts (or the whole generic σg when nothing
				// was pushable) run per survivor; value decodes go through
				// the env and are tallied there.
				if ageResidual != nil {
					env.row = row
					if !ageResidual(env) {
						continue
					}
				}
				if b == nil {
					b = cs.bucket(age, nAggs)
					// USER_COUNT: once per age span with survivors. Ages
					// strictly increase span to span, so each distinct age
					// counts the user once.
					for ai := range c.aggs {
						if c.aggs[ai].fn == UserCount {
							b[ai].users++
						}
					}
				}
				for ai := range c.aggs {
					agg := &c.aggs[ai]
					switch agg.fn {
					case Count:
						b[ai].cnt++
					case UserCount: // handled at the span's first survivor
					default:
						// Measures are read per survivor, straight off the
						// packed codes.
						st.ValueBytesDecoded += 8
						b[ai].addMeasureRun(ch.Int(agg.col, row), 1)
					}
				}
			}
		}
	}
	scr.keyBuf = keyBuf
	return st
}
