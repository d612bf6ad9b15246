package cohort

// The chunk kernel: Algorithms 1 and 2 run over one chunk, user block at a
// time. The storage format of Section 4.1 keeps each user's tuples together
// and time-ordered, so the birth tuple, the ages and the rows a query can
// aggregate all follow from the block's packed codes, and runChunk decodes
// only the rows it can aggregate:
//
//   - GetBirthTuple reads the chunk's birth index for the birth action (see
//     storage.BirthIndex): each user's birth row and its raw time code, found
//     by the packed-code birth search on the first scan that needs them and
//     kept with the chunk. σb's pushed time range is tested on the indexed
//     code (§4.2), so a user never born, or born outside the range, costs one
//     array read and one compare and its user run and block are never read
//     (§4.3); only the survivors read their run and the rest of σb on the
//     birth row's codes;
//   - the decode window of a qualified user starts at the birth row (earlier
//     rows have age <= 0 and are never aggregated) and ends at the age bound
//     the pushed AGE conjuncts imply, found by a binary search on the packed
//     time codes; time, conjunct codes and measures are read for that window
//     only, and the rows past it are counted as RowsSkippedByAge;
//   - same-age spans end at the first timestamp of the next age, so ages and
//     pushed AGE conjuncts evaluate once per distinct age and the span walk
//     is one compare per row;
//   - pushed column conjuncts evaluate through a per-conjunct memo over the
//     window's codes: the kernel closure runs only when the code changes, and
//     a failing conjunct short-circuits the rest of the row;
//   - with no per-row work left (no conjunct kernel, no residual, only COUNT
//     and USER_COUNT) a surviving span folds whole: its length into COUNT and
//     one user into USER_COUNT;
//   - when every cohort key is a string column, the birth row's key chunk-ids
//     index a per-chunk cohort memo, so the key bytes are built and the
//     accumulator probed once per distinct cohort in the chunk, not per user.
//
// Residual conjuncts (Birth() references, OR trees, …) still run per
// surviving row through the generic expr path. RowQuery.Scan over the
// materialized table is the reference the kernel must match bit for bit —
// the fuzz target and the union equivalence tests pin exactly that.

import (
	"math"
	"sync"

	"repro/internal/encoding"
	"repro/internal/storage"
)

// chunkScratch bundles every allocation a chunk scan needs — the expr
// environment, the cohort-key buffer, the window code buffers, the
// per-conjunct kernel memo and the cohort memo — so executors reuse one set
// per chunk task instead of allocating per chunk. Recycled through
// scratchPool.
type chunkScratch struct {
	env    chunkEnv
	keyBuf []byte

	timeBuf []uint64   // the current decode window's time deltas
	colBufs [][]uint64 // the current window's codes, one per active conjunct

	// act is the chunk's kernel-bearing conjuncts, compacted so the per-row
	// loop never branches over chunk-constant entries. The parallel slices
	// hold whether each conjunct's window codes are loaded, and its run memo
	// (valid across the chunk: a verdict depends on the code alone).
	act      []vecCond
	vcLoaded []bool
	vcPrev   []uint64
	vcVerd   []bool
	vcValid  []bool

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
// points into the caller's accumulator, so both are cleared too. The code
// buffers keep their capacity — that is the point.
func putScratch(scr *chunkScratch) {
	scr.env = chunkEnv{}
	clear(scr.act)
	scr.act = scr.act[:0]
	clear(scr.memo)
	scratchPool.Put(scr)
}

// growScratch sizes the per-conjunct slices for a chunk with nAct active
// conjuncts, reusing prior capacity.
func (scr *chunkScratch) growScratch(nAct int) {
	scr.colBufs = growSlice(scr.colBufs, nAct)
	scr.vcLoaded = growSlice(scr.vcLoaded, nAct)
	scr.vcPrev = growSlice(scr.vcPrev, nAct)
	scr.vcVerd = growSlice(scr.vcVerd, nAct)
	scr.vcValid = growSlice(scr.vcValid, nAct)
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
// value-encoded in the accumulator: the delta row path has no chunk-ids.
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

// runChunk executes the fused σb → σg → γc pipeline (Algorithms 1 and 2)
// over one chunk, folding into acc, and returns the chunk's decoder-level
// tallies. Callers should consult CanSkipChunk first; runChunk is still
// correct without it, just slower. On lazy tables the chunk is loaded (and
// pinned) on demand; the error is non-nil only when that load fails. skipUsers
// holds user global-ids to skip: the union executor passes the users that
// have fresh delta tuples — their sealed rows are processed together with the
// delta on the row path instead, so no user is aggregated twice. Any semantic
// change to the per-block loop below must land in RowQuery.Scan too — the
// equivalence tests pin the two paths to bit-identical results.
func (c *Compiled) runChunk(chunkIdx int, acc *Accumulator, skipUsers map[uint64]bool) (ChunkStats, error) {
	if !c.birthOK {
		return ChunkStats{}, nil
	}
	ch, release, err := c.tbl.PinChunk(chunkIdx)
	if err != nil {
		return ChunkStats{}, err
	}
	defer release()
	actionCol := c.schema.ActionCol()
	timeCol := c.schema.TimeCol()
	birthCID, inChunk := ch.ChunkIDOf(actionCol, c.birthGID)
	if !inChunk {
		return ChunkStats{}, nil // no user here ever performs the birth action
	}
	tf := ch.Ints(timeCol)
	// σb's pushed time range as a window of raw time codes: a birth time
	// code t is in it iff t-tLo <= tSpan (the full domain when σb pushes
	// no time range, or the range covers the chunk).
	tLo, tSpan, timed := uint64(0), uint64(math.MaxUint64), false
	if c.birthTime != nil {
		lo, span, verdict, isConst := c.birthTime.bindCodes(tf)
		if isConst && !verdict {
			return ChunkStats{UsersSkippedByBirth: int64(ch.NumUsers())}, nil
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

	// The per-row tails: pushed conjuncts leave a residual; with nothing
	// pushable the whole σb / σg predicate runs there.
	var vBirth, vAge boundVec
	birthResidual, ageResidual := c.birthPred, c.agePred
	if c.birthPush != nil {
		vBirth = c.birthPush.bindVec(ch)
		birthResidual = vBirth.residual
	}
	birthRowCheck := len(vBirth.cols) > 0 || len(vBirth.ageConds) > 0
	if c.agePush != nil {
		vAge = c.agePush.bindVec(ch)
		ageResidual = vAge.residual
	}
	tmin := tf.Min()
	unitSecs := c.unit.Seconds()
	ageCut := c.agePush != nil && c.agePush.hasMaxAge

	// Compact the kernel-bearing conjuncts: chunk-constant entries either
	// fail every block of the chunk (constFalse) or pass unconditionally and
	// vanish from the per-row loop.
	act := scr.act[:0]
	constFalse := false
	for _, vc := range vAge.cols {
		if vc.kernel == nil {
			if !vc.verdict {
				constFalse = true
			}
			continue
		}
		act = append(act, vc)
	}
	scr.act = act
	nAct := len(act)
	nAggs := len(c.aggs)
	scr.growScratch(nAct)
	clear(scr.vcValid)
	// With no per-row work left — no conjunct kernel, no residual, no
	// measure — a surviving age span folds whole.
	spanFold := nAct == 0 && ageResidual == nil
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
		// The rest of σb touches the birth tuple only: the same kernels,
		// applied to that one row's codes, then the residual; an unqualified
		// user's whole block is skipped.
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
		st.ValueBytesDecoded += 8 * int64(w)
		scr.timeBuf = ch.AppendRawInts(scr.timeBuf[:0], timeCol, wStart, wEnd)
		traw := scr.timeBuf // raw frame-of-reference deltas: ts = tmin + traw[i]
		clear(scr.vcLoaded)

		// Age selection off the sorted time column: one AgeOf per maximal
		// same-age span, then the span end is the first timestamp of the next
		// age — one integer compare per row, no division. Each span resolves
		// its pushed AGE verdict and aggregation bucket once; the rows inside
		// run through the conjunct memo, which re-evaluates a kernel only
		// when its column's code changes (once per run). Indices are window
		// offsets: row wStart+i.
		for i := 0; i < w; {
			age := AgeOf(tmin+int64(traw[i]), birthTime, c.unit)
			// First timestamp with a greater age, as a raw delta: birth+1
			// for the birth instant (0), the next unit boundary otherwise.
			thresh := birthTime + 1 - tmin
			if age > 0 {
				thresh = birthTime + age*unitSecs - tmin
			}
			spanEnd := i + 1
			for spanEnd < w && int64(traw[spanEnd]) < thresh {
				spanEnd++
			}
			st.RunsEvaluated++
			if age <= 0 {
				i = spanEnd
				continue
			}
			if len(vAge.ageConds) > 0 {
				st.EncodedChecks++
				if !vAge.passAge(age) {
					i = spanEnd
					continue
				}
			}
			if spanFold {
				b := cs.bucket(age, nAggs)
				for ai := range c.aggs {
					if c.aggs[ai].fn == Count {
						b.states[ai].cnt += int64(spanEnd - i)
					} else {
						b.states[ai].users++
					}
				}
				i = spanEnd
				continue
			}
			var b *bucket // resolved at the span's first surviving row
			if ageResidual != nil {
				env.age = age
			}
			for ; i < spanEnd; i++ {
				pass := true
				for ci := 0; ci < nAct; ci++ {
					if !scr.vcLoaded[ci] {
						// Lazy window decode: a conjunct column every earlier
						// check already rejected is never extracted.
						if act[ci].isString {
							scr.colBufs[ci] = ch.AppendChunkIDs(scr.colBufs[ci][:0], act[ci].col, wStart, wEnd)
						} else {
							scr.colBufs[ci] = ch.AppendRawInts(scr.colBufs[ci][:0], act[ci].col, wStart, wEnd)
						}
						scr.vcLoaded[ci] = true
					}
					code := scr.colBufs[ci][i]
					if !scr.vcValid[ci] || code != scr.vcPrev[ci] {
						// A new run of this column: one encoded-domain kernel
						// verdict covers it until the code changes again.
						scr.vcPrev[ci] = code
						scr.vcVerd[ci] = act[ci].kernel(code)
						scr.vcValid[ci] = true
						st.RunsEvaluated++
						st.EncodedChecks++
					}
					if !scr.vcVerd[ci] {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				// Residual conjuncts (or the whole generic σg when nothing
				// was pushable) run per surviving row; value decodes go
				// through the env and are tallied there.
				if ageResidual != nil {
					env.row = wStart + i
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
							b.states[ai].users++
						}
					}
				}
				for ai := range c.aggs {
					agg := &c.aggs[ai]
					switch agg.fn {
					case Count:
						b.states[ai].cnt++
					case UserCount: // handled at the span's first survivor
					default:
						// Measures are read per surviving row, straight off
						// the packed codes.
						st.ValueBytesDecoded += 8
						b.states[ai].addMeasureRun(ch.Int(agg.col, wStart+i), 1)
					}
				}
			}
		}
	}
	scr.keyBuf = keyBuf
	return st, nil
}
