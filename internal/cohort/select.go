package cohort

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/storage"
)

// SelectTuples materializes the composition σg[ageCond,e](σb[birthCond,e](D))
// as a sorted list of global row indices, reproducing the tuple-set
// semantics of Definitions 4 and 5. Either condition may be nil. It is the
// reference implementation used to check the worked examples of Section 3.3
// and by the example programs to extract activity sub-tables.
//
// Semantics: users qualify if they performed the birth action e and their
// birth activity tuple satisfies birthCond. Users who never performed e are
// excluded (their birth time is -1, so no birth tuple exists and no tuple
// has a well-defined age; Definitions 1-3). For qualified users:
//   - if ageCond is nil (no σg in the composition), every tuple of the user
//     is retained, matching σb alone;
//   - otherwise the birth tuple is retained unconditionally and an age tuple
//     (strictly after the birth time) is retained iff ageCond holds,
//     matching Definition 5.
func SelectTuples(tbl *storage.Table, birthAction string, birthCond, ageCond expr.Expr, unit Unit) ([]int, error) {
	schema := tbl.Schema()
	if birthAction == "" {
		return nil, fmt.Errorf("cohort: SelectTuples needs a birth action")
	}
	var birthPred, agePred expr.Pred
	var err error
	if birthCond != nil {
		if expr.UsesBirth(birthCond) || expr.UsesAge(birthCond) {
			return nil, fmt.Errorf("cohort: birth selection condition may not use Birth() or AGE")
		}
		if birthPred, err = expr.Compile(birthCond, schema); err != nil {
			return nil, err
		}
	}
	if ageCond != nil {
		if agePred, err = expr.Compile(ageCond, schema); err != nil {
			return nil, err
		}
	}
	var out []int
	birthGID, ok := tbl.LookupString(schema.ActionCol(), birthAction)
	if !ok {
		return out, nil
	}
	timeCol := schema.TimeCol()
	actionCol := schema.ActionCol()
	var actionCodes []uint64
	for chunkIdx := 0; chunkIdx < tbl.NumChunks(); chunkIdx++ {
		if !tbl.ChunkMayHaveGID(chunkIdx, actionCol, birthGID) {
			continue // no user in this chunk was born (chunk pruning)
		}
		ch, release, err := tbl.PinChunk(chunkIdx)
		if err != nil {
			return nil, err
		}
		base := tbl.RowOffset(chunkIdx)
		env := &chunkEnv{tbl: tbl, ch: ch, schema: schema}
		// The birth action's chunk-id, resolved once per chunk: the birth-row
		// search below then compares raw codes.
		birthCID, inChunk := ch.ChunkIDOf(actionCol, birthGID)
		if !inChunk {
			release()
			continue
		}
		actionCodes = ch.AppendChunkIDs(actionCodes[:0], actionCol, 0, ch.NumRows())
		for u := 0; u < ch.NumUsers(); u++ {
			gid, first, n := ch.UserRun(u)
			end := first + n
			birthRow := -1
			for r := first; r < end; r++ {
				if actionCodes[r] == birthCID {
					birthRow = r
					break
				}
			}
			if birthRow < 0 {
				continue
			}
			env.userGID = gid
			env.birth = birthRow
			if birthPred != nil {
				env.row = birthRow
				env.age = 0
				if !birthPred(env) {
					continue
				}
			}
			if agePred == nil {
				for row := first; row < end; row++ {
					out = append(out, base+row)
				}
				continue
			}
			birthTime := ch.Int(timeCol, birthRow)
			out = append(out, base+birthRow)
			for row := first; row < end; row++ {
				ts := ch.Int(timeCol, row)
				if ts <= birthTime {
					continue
				}
				env.row = row
				env.age = AgeOf(ts, birthTime, unit)
				if agePred(env) {
					out = append(out, base+row)
				}
			}
		}
		release()
	}
	sort.Ints(out)
	return out, nil
}
