package cohort

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// joinedCompare is the order compareCohorts must reproduce: the cohort keys
// joined with "\x00", compared as strings.
func joinedCompare(a, b []string) int {
	return strings.Compare(strings.Join(a, "\x00"), strings.Join(b, "\x00"))
}

// TestCompareCohortsMatchesJoinedOrder checks the allocation-free comparator
// behind Result.Sort against the joined-string order it replaces, on random
// keys over a tiny alphabet that contains the separator itself, so empty
// elements, prefixes and keys whose joins collide are all common.
func TestCompareCohortsMatchesJoinedOrder(t *testing.T) {
	check := func(a, b []string) {
		t.Helper()
		if got, want := compareCohorts(a, b), joinedCompare(a, b); got != want {
			t.Fatalf("compareCohorts(%q, %q) = %d, joined order says %d", a, b, got, want)
		}
	}
	for _, p := range [][2][]string{
		{{"a", "b"}, {"a\x00b"}},
		{{"ab"}, {"a", "b"}},
		{{"a"}, {"a", ""}},
		{{}, {""}},
		{{"", ""}, {"\x00"}},
		{{"a\x00"}, {"a", "\x00"}},
	} {
		check(p[0], p[1])
		check(p[1], p[0])
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "\x00ab"
	key := func() []string {
		k := make([]string, rng.Intn(4))
		for i := range k {
			b := make([]byte, rng.Intn(4))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			k[i] = string(b)
		}
		return k
	}
	for i := 0; i < 50000; i++ {
		a, b := key(), key()
		check(a, b)
		check(a, a)
	}

	// Result.Sort orders rows by the joined key, then by age.
	res := &Result{}
	for i := 0; i < 500; i++ {
		res.Rows = append(res.Rows, Row{Cohort: key(), Age: int64(rng.Intn(3))})
	}
	res.Sort()
	if !slices.IsSortedFunc(res.Rows, func(a, b Row) int {
		if c := joinedCompare(a.Cohort, b.Cohort); c != 0 {
			return c
		}
		return int(a.Age - b.Age)
	}) {
		t.Fatal("Result.Sort does not order rows by joined cohort key, then age")
	}
}
