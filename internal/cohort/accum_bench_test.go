package cohort

// Ablation benchmark for the Section 4.4 design choice: "the use of
// array-based hash tables in the inner loop of cohort aggregation
// significantly improves the performance since modern CPUs can highly
// pipeline array operations." BenchmarkAggArrayVsMap drives the same update
// stream through the shipped dense-array buckets and a map[int64] variant.

import (
	"math/rand"
	"testing"
)

// mapCohortState is the map-based alternative the paper argues against:
// ages are keyed in a hash map instead of a dense array.
type mapCohortState struct {
	size int64
	ages map[int64][]aggState
}

func (m *mapCohortState) bucket(age int64, nAggs int) []aggState {
	b, ok := m.ages[age]
	if !ok {
		b = make([]aggState, nAggs)
		m.ages[age] = b
	}
	return b
}

// updateStream synthesizes a realistic aggregation update sequence: user
// blocks with nondecreasing ages and a gold measure.
func updateStream(n int) (ages []int64, golds []int64) {
	rng := rand.New(rand.NewSource(7))
	ages = make([]int64, n)
	golds = make([]int64, n)
	age := int64(1)
	for i := range ages {
		if rng.Intn(8) == 0 { // new user: restart ages
			age = 1
		} else if rng.Intn(3) == 0 {
			age++
		}
		ages[i] = age
		golds[i] = int64(rng.Intn(100))
	}
	return
}

func BenchmarkAggArrayVsMap(b *testing.B) {
	const n = 1 << 16
	ages, golds := updateStream(n)
	b.Run("array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := &cohortState{}
			for k := 0; k < n; k++ {
				bkt := cs.bucket(ages[k], 1)
				st := &bkt[0]
				st.sum += float64(golds[k])
				st.cnt++
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := &mapCohortState{ages: make(map[int64][]aggState)}
			for k := 0; k < n; k++ {
				bkt := cs.bucket(ages[k], 1)
				st := &bkt[0]
				st.sum += float64(golds[k])
				st.cnt++
			}
		}
	})
}

// TestMapVariantAgreesWithArray guards the ablation itself: both data
// structures must produce identical aggregates for the same stream.
func TestMapVariantAgreesWithArray(t *testing.T) {
	ages, golds := updateStream(4096)
	arr := &cohortState{}
	mp := &mapCohortState{ages: make(map[int64][]aggState)}
	for k := range ages {
		ab := arr.bucket(ages[k], 1)
		ab[0].sum += float64(golds[k])
		ab[0].cnt++
		mb := mp.bucket(ages[k], 1)
		mb[0].sum += float64(golds[k])
		mb[0].cnt++
	}
	for i, present := range arr.present {
		ab := arr.states[i : i+1]
		if !present {
			if _, ok := mp.ages[int64(i+1)]; ok {
				t.Fatalf("age %d present only in map", i+1)
			}
			continue
		}
		mb, ok := mp.ages[int64(i+1)]
		if !ok {
			t.Fatalf("age %d missing from map", i+1)
		}
		if ab[0].sum != mb[0].sum || ab[0].cnt != mb[0].cnt {
			t.Fatalf("age %d disagrees: %+v vs %+v", i+1, ab[0], mb[0])
		}
	}
}
