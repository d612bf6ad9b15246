package cohort

import (
	"math"
	"sort"
)

// Accumulator holds the partial aggregation state of a cohort query: the
// cohort-size table Hc and the cohort-metric table Hg of Algorithm 2.
// Cohorts live in a map keyed by their value-encoded key bytes (the sealed
// and union tables of a live shard have separate dictionaries, and both
// scans must key alike); ages are a dense array per cohort, so a bucket is
// an array index. Section 4.4's fully array-based tables are only half here:
// the chunk kernel memoizes string-keyed cohorts per chunk by their chunk-id
// tuple (chunkScratch.memo), so the map is probed once per distinct cohort
// in a chunk, not per user.
type Accumulator struct {
	nAggs   int
	cohorts map[string]*cohortState
}

type cohortState struct {
	display []string
	size    int64 // Hc entry: distinct qualified users in the cohort
	// present[age-1] marks the ages holding an Hg entry; states holds the
	// entries of every age in one array, age a's nAggs aggregates at
	// [(a-1)*nAggs, a*nAggs). Both grow on demand, together.
	present []bool
	states  []aggState
}

type aggState struct {
	sum   float64
	cnt   int64
	min   int64
	max   int64
	has   bool // min/max initialized
	users int64
}

// NewAccumulator creates an accumulator for nAggs aggregates.
func NewAccumulator(nAggs int) *Accumulator {
	return &Accumulator{nAggs: nAggs, cohorts: make(map[string]*cohortState)}
}

// cohort returns (creating if needed) the state for a cohort key. display is
// only consulted on creation.
func (a *Accumulator) cohort(key string, display func() []string) *cohortState {
	cs, ok := a.cohorts[key]
	if !ok {
		cs = &cohortState{display: display()}
		a.cohorts[key] = cs
	}
	return cs
}

// cohortBytes is cohort for a byte-slice key: the map probe compiles to a
// no-allocation lookup, and the key is copied into a string only the first
// time the cohort is seen — so the per-user-block hot path stays free of
// conversion garbage on warm accumulators.
func (a *Accumulator) cohortBytes(key []byte, display func() []string) *cohortState {
	if cs, ok := a.cohorts[string(key)]; ok {
		return cs
	}
	cs := &cohortState{display: display()}
	a.cohorts[string(key)] = cs
	return cs
}

// bucket returns (creating if needed) the aggregates of an age's bucket.
func (cs *cohortState) bucket(age int64, nAggs int) []aggState {
	idx := int(age - 1)
	if idx >= len(cs.present) {
		// Grow geometrically to keep amortized cost constant.
		newCap := max(len(cs.present)*2+4, idx+1)
		cs.present = append(cs.present, make([]bool, newCap-len(cs.present))...)
		cs.states = append(cs.states, make([]aggState, newCap*nAggs-len(cs.states))...)
	}
	cs.present[idx] = true
	return cs.states[idx*nAggs : (idx+1)*nAggs : (idx+1)*nAggs]
}

// addMeasureRun folds a run of k equal measure values v into the state in
// one operation — the run-at-a-time form of the scalar per-row fold. The sum
// update is exact (int64 products in float64 stay integral far below 2^53),
// so the result is bit-identical to k scalar additions.
func (st *aggState) addMeasureRun(v, k int64) {
	st.sum += float64(v * k)
	st.cnt += k
	if !st.has {
		st.min, st.max, st.has = v, v, true
	} else {
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
	}
}

// Merge folds other into a. Distinct users never span accumulators (chunks
// hold whole users), so user counts add.
func (a *Accumulator) Merge(other *Accumulator) {
	for key, ocs := range other.cohorts {
		cs, ok := a.cohorts[key]
		if !ok {
			a.cohorts[key] = ocs
			continue
		}
		cs.size += ocs.size
		for i, ok := range ocs.present {
			if !ok {
				continue
			}
			b, ob := cs.bucket(int64(i+1), a.nAggs), ocs.states[i*a.nAggs:]
			for k := range b {
				s, os := &b[k], &ob[k]
				s.sum += os.sum
				s.cnt += os.cnt
				s.users += os.users
				if os.has {
					if !s.has {
						s.min, s.max, s.has = os.min, os.max, true
					} else {
						if os.min < s.min {
							s.min = os.min
						}
						if os.max > s.max {
							s.max = os.max
						}
					}
				}
			}
		}
	}
}

// Result materializes the accumulated state into a sorted Result.
func (a *Accumulator) Result(keyCols []string, aggs []AggSpec) *Result {
	res := &Result{KeyCols: keyCols}
	for _, s := range aggs {
		res.AggNames = append(res.AggNames, s.Name())
	}
	keys := make([]string, 0, len(a.cohorts))
	nRows := 0
	for k, cs := range a.cohorts {
		keys = append(keys, k)
		for _, ok := range cs.present {
			if ok {
				nRows++
			}
		}
	}
	sort.Strings(keys)
	// Every row's Aggs is a window of one backing array.
	var vals []float64
	if nRows > 0 {
		res.Rows = make([]Row, 0, nRows)
		vals = make([]float64, nRows*len(aggs))
	}
	for _, k := range keys {
		cs := a.cohorts[k]
		for i, ok := range cs.present {
			if !ok {
				continue
			}
			row := Row{
				Cohort: cs.display,
				Age:    int64(i + 1),
				Size:   cs.size,
				Aggs:   vals[:len(aggs):len(aggs)],
			}
			vals = vals[len(aggs):]
			for j, spec := range aggs {
				st := &cs.states[i*a.nAggs+j]
				switch spec.Func {
				case Sum:
					row.Aggs[j] = st.sum
				case Count:
					row.Aggs[j] = float64(st.cnt)
				case Avg:
					if st.cnt > 0 {
						row.Aggs[j] = st.sum / float64(st.cnt)
					} else {
						row.Aggs[j] = math.NaN()
					}
				case Min:
					row.Aggs[j] = float64(st.min)
				case Max:
					row.Aggs[j] = float64(st.max)
				case UserCount:
					row.Aggs[j] = float64(st.users)
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Sort()
	return res
}
