package cohort

// The chunk kernel: Algorithms 1 and 2 run over one chunk, run at a time. The
// storage format of Section 4.1 leaves long runs of equal codes in the
// encoded columns: dimension attributes (country, role, …) are constant
// across a user's block, the action and time columns run in bursts, and
// sorted times make ages nondecreasing inside a block. runChunk exploits
// that instead of flattening it away. Each referenced column's codes are
// extracted once per chunk in a single sequential batch — the chunk is the
// paper's processing unit, and one AppendRange pass costs a shift and a mask
// per value where a row-at-a-time loop pays a random-access Get — and every
// decision is then made once per (value-id, runLength) run over the flat code
// arrays:
//
//   - the birth search compares one chunk-id per action run;
//   - same-age spans end at the first timestamp of the next age, a bound
//     computed once per span, so ages and pushed AGE conjuncts evaluate once
//     per distinct age and the span walk is one compare per row;
//   - pushed column conjuncts evaluate through a per-conjunct memo over the
//     decoded codes: the kernel closure runs only when the code changes, so
//     a run of k equal codes costs one encoded-domain verdict and k-1 cached
//     reads, and a failing conjunct short-circuits the rest of the row;
//   - the aggregation bucket is resolved once per age span, USER_COUNT
//     increments once per span with survivors (ages strictly increase span
//     to span, so that is one count per distinct age), and measure values
//     fold off the batch-decoded codes.
//
// Residual conjuncts (Birth() references, OR trees, …) still run per
// surviving row through the generic expr path. RowQuery.Scan over the
// materialized table is the reference the kernel must match bit for bit —
// the fuzz target and the union equivalence tests pin exactly that.

import "sync"

// chunkScratch bundles every allocation a chunk scan needs — the expr
// environment, the cohort-key buffer, the code buffers and the per-conjunct
// kernel memo — so executors reuse one set per chunk task instead of
// allocating per chunk. Recycled through scratchPool.
type chunkScratch struct {
	env    chunkEnv
	keyBuf []byte

	actionBuf []uint64
	timeBuf   []uint64
	colBufs   [][]uint64 // chunk code batches, one per active conjunct
	measBufs  [][]uint64 // chunk measure batches, one per aggregate

	// act is the chunk's kernel-bearing conjuncts, compacted so the per-row
	// loop never branches over chunk-constant entries. The parallel slices
	// hold each conjunct's lazily decoded chunk codes and its run memo.
	act      []vecCond
	vcCodes  [][]uint64
	vcPrev   []uint64
	vcVerd   []bool
	vcValid  []bool
	vcLoaded []bool

	// Per-aggregate measure state: lazily decoded chunk codes (shared with a
	// conjunct on the same column), the chunk frame minimum, and load flags.
	measCodes  [][]uint64
	measMin    []int64
	measUse    []int // index into act whose codes a measure can share, or -1
	measLoaded []bool
}

var scratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

func getScratch() *chunkScratch { return scratchPool.Get().(*chunkScratch) }

// putScratch returns scr to the pool, dropping the table/chunk references so
// a pooled scratch never keeps a lazily-loaded segment reachable across
// queries — the bound kernels in act capture the chunk, so they are cleared
// too. The code buffers keep their capacity — that is the point.
func putScratch(scr *chunkScratch) {
	scr.env = chunkEnv{}
	clear(scr.act)
	scr.act = scr.act[:0]
	scratchPool.Put(scr)
}

// growScratch sizes the per-conjunct and per-aggregate slices for a chunk
// with nAct active conjuncts and nAggs aggregates, reusing prior capacity.
func (scr *chunkScratch) growScratch(nAct, nAggs int) {
	scr.colBufs = growSlice(scr.colBufs, nAct)
	scr.vcCodes = growSlice(scr.vcCodes, nAct)
	scr.vcPrev = growSlice(scr.vcPrev, nAct)
	scr.vcVerd = growSlice(scr.vcVerd, nAct)
	scr.vcValid = growSlice(scr.vcValid, nAct)
	scr.vcLoaded = growSlice(scr.vcLoaded, nAct)
	scr.measBufs = growSlice(scr.measBufs, nAggs)
	scr.measCodes = growSlice(scr.measCodes, nAggs)
	scr.measMin = growSlice(scr.measMin, nAggs)
	scr.measUse = growSlice(scr.measUse, nAggs)
	scr.measLoaded = growSlice(scr.measLoaded, nAggs)
}

// growSlice returns a slice of length n, preserving s's backing array when
// its capacity suffices. Contents are unspecified — callers fully initialize.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	if c.agePush != nil {
		vAge = c.agePush.bindVec(ch)
		ageResidual = vAge.residual
	}
	rows := ch.NumRows()
	tmin := ch.Ints(timeCol).Min()

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
	scr.growScratch(nAct, nAggs)
	for ci := 0; ci < nAct; ci++ {
		scr.vcLoaded[ci] = false
		scr.vcValid[ci] = false
	}
	// Measure aggregates: frame minima are chunk constants, and a measure on
	// the same column as an integer conjunct shares its decoded codes.
	for ai := range c.aggs {
		agg := &c.aggs[ai]
		scr.measLoaded[ai] = false
		if agg.fn == Count || agg.fn == UserCount {
			continue
		}
		scr.measMin[ai] = ch.Ints(agg.col).Min()
		scr.measUse[ai] = -1
		for ci := range act {
			if !act[ci].isString && act[ci].col == agg.col {
				scr.measUse[ai] = ci
				break
			}
		}
	}
	// The action column feeds the birth search of every block (and often a
	// pushed conjunct too), so it is extracted for the whole chunk up front —
	// the sequential batch costs about a nanosecond per code, far below the
	// per-block loads it replaces.
	scr.actionBuf = ch.AppendChunkIDs(scr.actionBuf[:0], actionCol, 0, rows)
	actionCodes := scr.actionBuf
	for ci := range act {
		if act[ci].isString && act[ci].col == actionCol {
			scr.vcCodes[ci] = actionCodes // the conjunct memo shares the batch
			scr.vcLoaded[ci] = true
		}
	}
	// The time column is decoded on the first block that survives the birth
	// search and σb: every later step reads it (birth time, age boundaries).
	var traw []uint64
	keyBuf := scr.keyBuf

	// The modified TableScan of Section 4.3: one (u, f, n) triple of the RLE
	// user column per user block, so skipping an unqualified user is moving
	// on to the next triple.
	for u, nu := 0, ch.NumUsers(); u < nu; u++ {
		gid, first, n := ch.UserRun(u)
		end := first + n
		if skipUsers != nil && skipUsers[gid] {
			continue
		}
		// GetBirthTuple, run at a time: one chunk-id compare rejects a whole
		// run of non-birth actions; the first matching run's first row is the
		// birth tuple (time-ordering property).
		birthRow := -1
		for i := first; i < end; {
			code := actionCodes[i]
			j := i + 1
			for j < end && actionCodes[j] == code {
				j++
			}
			st.RunsEvaluated++
			st.EncodedChecks++
			if code == birthCID {
				birthRow = i
				break
			}
			i = j
		}
		if birthRow < 0 {
			continue
		}
		env.userGID = gid
		env.birth = birthRow
		// σb touches the birth tuple only: the same kernels, applied to that
		// one row's codes, then the residual; an unqualified user's whole
		// block is skipped.
		if c.birthPush != nil {
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
		if traw == nil {
			scr.timeBuf = ch.AppendRawInts(scr.timeBuf[:0], timeCol, 0, rows)
			traw = scr.timeBuf // raw frame-of-reference deltas: ts = tmin + traw[r]
		}
		// The batch extraction above is amortization; the decoded-bytes
		// counter tracks time values the query consumes — this block's.
		st.ValueBytesDecoded += 8 * int64(n)
		birthTime := tmin + int64(traw[birthRow])
		keyBuf = c.appendKey(keyBuf[:0], ch, birthRow, birthTime)
		cs := acc.cohortBytes(keyBuf, func() []string { return c.displayKey(ch, birthRow, birthTime) })
		cs.size++ // Hc[d_b[L]]++
		st.RowsScanned += int64(n)
		st.RowsBatched += int64(n)
		if constFalse {
			continue // a chunk-constant conjunct rejects every activity tuple
		}

		// Age selection off the sorted time column: one AgeOf per maximal
		// same-age span, then the span end is the first timestamp of the next
		// age — one integer compare per row, no division. Each span resolves
		// its pushed AGE verdict and aggregation bucket once; the rows inside
		// run through the conjunct memo, which re-evaluates a kernel only
		// when its column's code changes (once per run).
		for r := first; r < end; {
			age := AgeOf(tmin+int64(traw[r]), birthTime, c.unit)
			// First timestamp with a greater age, as a raw delta: birth for
			// pre-birth rows (-1), birth+1 for the birth instant (0), the
			// next unit boundary otherwise.
			var thresh int64
			switch {
			case age < 0:
				thresh = birthTime - tmin
			case age == 0:
				thresh = birthTime + 1 - tmin
			default:
				thresh = birthTime + age*c.unit.Seconds() - tmin
			}
			spanEnd := r + 1
			for spanEnd < end && int64(traw[spanEnd]) < thresh {
				spanEnd++
			}
			st.RunsEvaluated++
			if age <= 0 {
				r = spanEnd
				continue
			}
			if len(vAge.ageConds) > 0 {
				st.EncodedChecks++
				if !vAge.passAge(age) {
					r = spanEnd
					continue
				}
			}
			var b *bucket // resolved at the span's first surviving row
			if ageResidual != nil {
				env.age = age
			}
			for ; r < spanEnd; r++ {
				pass := true
				for ci := 0; ci < nAct; ci++ {
					if !scr.vcLoaded[ci] {
						// Lazy chunk decode: a conjunct column every earlier
						// check already rejected is never extracted.
						if act[ci].isString {
							scr.colBufs[ci] = ch.AppendChunkIDs(scr.colBufs[ci][:0], act[ci].col, 0, rows)
						} else {
							scr.colBufs[ci] = ch.AppendRawInts(scr.colBufs[ci][:0], act[ci].col, 0, rows)
						}
						scr.vcCodes[ci] = scr.colBufs[ci]
						scr.vcLoaded[ci] = true
					}
					code := scr.vcCodes[ci][r]
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
					env.row = r
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
						if !scr.measLoaded[ai] {
							if ci := scr.measUse[ai]; ci >= 0 && scr.vcLoaded[ci] {
								scr.measCodes[ai] = scr.vcCodes[ci]
							} else {
								scr.measBufs[ai] = ch.AppendRawInts(scr.measBufs[ai][:0], agg.col, 0, rows)
								scr.measCodes[ai] = scr.measBufs[ai]
							}
							scr.measLoaded[ai] = true
						}
						st.ValueBytesDecoded += 8
						b.states[ai].addMeasureRun(scr.measMin[ai]+int64(scr.measCodes[ai][r]), 1)
					}
				}
			}
		}
	}
	scr.keyBuf = keyBuf
	return st, nil
}
