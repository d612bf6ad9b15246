package cohort

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// Result is the output relation of a cohort query: one row per (cohort, age)
// bucket with the cohort size and the aggregated measures (Definition 6).
// Aggregate values are float64; every aggregate except Avg produces exact
// integers (well within float64's 2^53 integer range for these workloads).
type Result struct {
	KeyCols  []string // names of the cohort attributes
	AggNames []string // names of the aggregate outputs
	Rows     []Row
}

// Row is one (cohort, age) bucket.
type Row struct {
	Cohort []string  // display values of the cohort attributes
	Age    int64     // 1-based age
	Size   int64     // cohort size s: distinct qualified users in the cohort
	Aggs   []float64 // aggregate values, parallel to Result.AggNames
}

// compareCohorts orders two cohort keys exactly as strings.Compare orders
// strings.Join(a, "\x00") and strings.Join(b, "\x00"), without building
// either string: it walks both keys as byte streams of pieces — element,
// separator, element, ... — comparing the overlap of the current pieces.
func compareCohorts(a, b []string) int {
	var pa, pb string // unread bytes of each side's current piece
	ia, ib := 0, 0    // each side's next piece
	for {
		for pa == "" && ia < 2*len(a)-1 {
			pa, ia = joinedPiece(a, ia), ia+1
		}
		for pb == "" && ib < 2*len(b)-1 {
			pb, ib = joinedPiece(b, ib), ib+1
		}
		if pa == "" || pb == "" { // a side ran out of bytes
			return cmp.Compare(len(pa), len(pb))
		}
		n := min(len(pa), len(pb))
		if c := strings.Compare(pa[:n], pb[:n]); c != 0 {
			return c
		}
		pa, pb = pa[n:], pb[n:]
	}
}

// joinedPiece returns piece i of key joined with "\x00": the elements at even
// positions, the separator between them at odd ones.
func joinedPiece(key []string, i int) string {
	if i%2 == 1 {
		return "\x00"
	}
	return key[i/2]
}

// Sort orders rows by cohort attributes then age, making results
// deterministic and comparable across engines.
func (res *Result) Sort() {
	slices.SortFunc(res.Rows, func(a, b Row) int {
		if c := compareCohorts(a.Cohort, b.Cohort); c != 0 {
			return c
		}
		return cmp.Compare(a.Age, b.Age)
	})
}

// Equal compares two results with a small floating-point tolerance on
// aggregate values (Avg is computed in different orders by different
// engines). Rows must be sorted.
func (res *Result) Equal(o *Result) bool {
	if len(res.Rows) != len(o.Rows) {
		return false
	}
	for i := range res.Rows {
		a, b := res.Rows[i], o.Rows[i]
		if compareCohorts(a.Cohort, b.Cohort) != 0 || a.Age != b.Age || a.Size != b.Size || len(a.Aggs) != len(b.Aggs) {
			return false
		}
		for k := range a.Aggs {
			if math.Abs(a.Aggs[k]-b.Aggs[k]) > 1e-6*math.Max(1, math.Abs(a.Aggs[k])) {
				return false
			}
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference between
// two sorted results, or "" if they are Equal. Used by the cross-engine
// equivalence tests.
func (res *Result) Diff(o *Result) string {
	if len(res.Rows) != len(o.Rows) {
		return fmt.Sprintf("row count %d vs %d", len(res.Rows), len(o.Rows))
	}
	for i := range res.Rows {
		a, b := res.Rows[i], o.Rows[i]
		if compareCohorts(a.Cohort, b.Cohort) != 0 || a.Age != b.Age {
			return fmt.Sprintf("row %d key (%v, %d) vs (%v, %d)", i, a.Cohort, a.Age, b.Cohort, b.Age)
		}
		if a.Size != b.Size {
			return fmt.Sprintf("row %d (%v, age %d): size %d vs %d", i, a.Cohort, a.Age, a.Size, b.Size)
		}
		for k := range a.Aggs {
			if math.Abs(a.Aggs[k]-b.Aggs[k]) > 1e-6*math.Max(1, math.Abs(a.Aggs[k])) {
				return fmt.Sprintf("row %d (%v, age %d) agg %d: %v vs %v", i, a.Cohort, a.Age, k, a.Aggs[k], b.Aggs[k])
			}
		}
	}
	return ""
}

// WriteTable renders the result as an aligned text table, the tabular form
// of the paper's cohort reports (Table 3).
func (res *Result) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	cols := append(append([]string{}, res.KeyCols...), "COHORTSIZE", "AGE")
	cols = append(cols, res.AggNames...)
	fmt.Fprintln(tw, strings.Join(cols, "\t"))
	for _, r := range res.Rows {
		parts := append([]string{}, r.Cohort...)
		parts = append(parts, fmt.Sprintf("%d", r.Size), fmt.Sprintf("%d", r.Age))
		for _, v := range r.Aggs {
			parts = append(parts, formatAgg(v))
		}
		fmt.Fprintln(tw, strings.Join(parts, "\t"))
	}
	return tw.Flush()
}

func formatAgg(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table into a string.
func (res *Result) String() string {
	var sb strings.Builder
	_ = res.WriteTable(&sb)
	return sb.String()
}

// Matrix pivots a single-aggregate result for one cohort attribute into the
// paper's Table 3 / Figure 1 layout: one row per cohort (with size), one
// column per age. Missing buckets are NaN.
type Matrix struct {
	Cohorts []string
	Sizes   []int64
	Ages    []int64
	Cells   [][]float64 // [cohort][ageIdx]
}

// Pivot builds a Matrix from the aggregate at index agg.
func (res *Result) Pivot(agg int) *Matrix {
	m := &Matrix{}
	cohortIdx := map[string]int{}
	ageIdx := map[int64]int{}
	for _, r := range res.Rows {
		ck := strings.Join(r.Cohort, " / ")
		if _, ok := cohortIdx[ck]; !ok {
			cohortIdx[ck] = len(m.Cohorts)
			m.Cohorts = append(m.Cohorts, ck)
			m.Sizes = append(m.Sizes, r.Size)
		}
		if _, ok := ageIdx[r.Age]; !ok {
			ageIdx[r.Age] = len(m.Ages)
			m.Ages = append(m.Ages, r.Age)
		}
	}
	sort.Slice(m.Ages, func(i, j int) bool { return m.Ages[i] < m.Ages[j] })
	for i, a := range m.Ages {
		ageIdx[a] = i
	}
	m.Cells = make([][]float64, len(m.Cohorts))
	for i := range m.Cells {
		row := make([]float64, len(m.Ages))
		for j := range row {
			row[j] = math.NaN()
		}
		m.Cells[i] = row
	}
	for _, r := range res.Rows {
		ck := strings.Join(r.Cohort, " / ")
		m.Cells[cohortIdx[ck]][ageIdx[r.Age]] = r.Aggs[agg]
	}
	return m
}

// WriteTable renders the matrix like Table 3 of the paper.
func (m *Matrix) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"cohort"}
	for _, a := range m.Ages {
		header = append(header, fmt.Sprintf("%d", a))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i, c := range m.Cohorts {
		parts := []string{fmt.Sprintf("%s (%d)", c, m.Sizes[i])}
		for _, v := range m.Cells[i] {
			if math.IsNaN(v) {
				parts = append(parts, "")
			} else {
				parts = append(parts, formatAgg(v))
			}
		}
		fmt.Fprintln(tw, strings.Join(parts, "\t"))
	}
	return tw.Flush()
}
