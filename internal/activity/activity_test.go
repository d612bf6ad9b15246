package activity

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSchemaValidation(t *testing.T) {
	base := []Col{
		{Name: "u", Type: TypeString, Kind: KindUser},
		{Name: "t", Type: TypeTime, Kind: KindTime},
		{Name: "a", Type: TypeString, Kind: KindAction},
		{Name: "g", Type: TypeInt, Kind: KindMeasure},
	}
	if _, err := NewSchema(base); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name string
		cols []Col
	}{
		{"missing user", base[1:]},
		{"duplicate name", append(append([]Col(nil), base...), Col{Name: "U", Type: TypeString, Kind: KindDim})},
		{"two user cols", append(append([]Col(nil), base...), Col{Name: "u2", Type: TypeString, Kind: KindUser})},
		{"int user col", []Col{{Name: "u", Type: TypeInt, Kind: KindUser}, base[1], base[2]}},
		{"string measure", []Col{base[0], base[1], base[2], {Name: "m", Type: TypeString, Kind: KindMeasure}}},
		{"time dim", []Col{base[0], base[1], base[2], {Name: "d", Type: TypeTime, Kind: KindDim}}},
		{"empty name", []Col{{Name: "", Type: TypeString, Kind: KindUser}, base[1], base[2]}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.cols); err == nil {
			t.Errorf("%s: schema accepted", c.name)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := PaperSchema()
	if s.UserCol() != 0 || s.TimeCol() != 1 || s.ActionCol() != 2 {
		t.Errorf("role columns = %d,%d,%d", s.UserCol(), s.TimeCol(), s.ActionCol())
	}
	if s.ColIndex("GOLD") != 5 {
		t.Errorf("case-insensitive ColIndex failed: %d", s.ColIndex("GOLD"))
	}
	if s.ColIndex("nope") != -1 {
		t.Errorf("absent column index = %d", s.ColIndex("nope"))
	}
}

func TestSortByPKAndUserBlocks(t *testing.T) {
	tbl := NewTable(PaperSchema())
	// Insert out of order.
	rows := [][]any{
		{"002", int64(200), "shop", "wizard", "US", int64(30)},
		{"001", int64(100), "launch", "dwarf", "AU", int64(0)},
		{"001", int64(50), "shop", "dwarf", "AU", int64(5)},
		{"002", int64(150), "launch", "wizard", "US", int64(0)},
	}
	for _, r := range rows {
		if err := tbl.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.SortByPK(); err != nil {
		t.Fatal(err)
	}
	wantTimes := []int64{50, 100, 150, 200}
	if !reflect.DeepEqual(tbl.Ints(tbl.Schema().TimeCol()), wantTimes) {
		t.Errorf("times after sort = %v", tbl.Ints(1))
	}
	var blocks []string
	tbl.UserBlocks(func(u string, s, e int) {
		blocks = append(blocks, u)
		if e <= s {
			t.Errorf("empty block for %q", u)
		}
	})
	if !reflect.DeepEqual(blocks, []string{"001", "002"}) {
		t.Errorf("user blocks = %v", blocks)
	}
	if tbl.NumUsers() != 2 {
		t.Errorf("NumUsers = %d", tbl.NumUsers())
	}
}

func TestSortByPKDetectsDuplicates(t *testing.T) {
	tbl := NewTable(PaperSchema())
	for i := 0; i < 2; i++ {
		if err := tbl.Append("001", int64(100), "launch", "dwarf", "AU", int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.SortByPK(); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

func TestAppendTypeErrors(t *testing.T) {
	tbl := NewTable(PaperSchema())
	if err := tbl.Append("001", "not-a-time", "launch", "dwarf", "AU", int64(0)); err == nil {
		t.Error("bad time type accepted")
	}
	if err := tbl.Append(1, int64(0), "launch", "dwarf", "AU", int64(0)); err == nil {
		t.Error("bad user type accepted")
	}
	if err := tbl.Append("001", int64(0), "launch"); err == nil {
		t.Error("short row accepted")
	}
	if tbl.Len() != 0 {
		t.Errorf("failed appends mutated the table: len=%d", tbl.Len())
	}
}

func TestPaperTable1(t *testing.T) {
	tbl := PaperTable1()
	if tbl.Len() != 10 {
		t.Fatalf("Table 1 has %d tuples", tbl.Len())
	}
	if tbl.NumUsers() != 3 {
		t.Errorf("Table 1 has %d users", tbl.NumUsers())
	}
	if !tbl.Sorted() {
		t.Error("fixture not sorted")
	}
	// t1 is player 001 launching; last tuple is player 003 fighting.
	if tbl.User(0) != "001" || tbl.Action(0) != "launch" {
		t.Errorf("first tuple = %s/%s", tbl.User(0), tbl.Action(0))
	}
	if tbl.User(9) != "003" || tbl.Action(9) != "fight" {
		t.Errorf("last tuple = %s/%s", tbl.User(9), tbl.Action(9))
	}
}

func TestParseTime(t *testing.T) {
	got, err := ParseTime("2013/05/19:1000")
	if err != nil {
		t.Fatal(err)
	}
	if got != paperTime(2013, 5, 19, 10, 0) {
		t.Errorf("paper layout parsed to %d", got)
	}
	if v, err := ParseTime("12345"); err != nil || v != 12345 {
		t.Errorf("unix seconds parse = %d, %v", v, err)
	}
	if _, err := ParseTime("yesterday"); err == nil {
		t.Error("garbage time accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := PaperTable1()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tbl.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), tbl.Len())
	}
	for c := 0; c < tbl.Schema().NumCols(); c++ {
		if tbl.Schema().IsStringCol(c) {
			if !reflect.DeepEqual(got.Strings(c), tbl.Strings(c)) {
				t.Errorf("column %d mismatch", c)
			}
		} else if !reflect.DeepEqual(got.Ints(c), tbl.Ints(c)) {
			t.Errorf("column %d mismatch", c)
		}
	}
}

func TestReadCSVHeaderErrors(t *testing.T) {
	schema := PaperSchema()
	cases := []string{
		"player,time,action,role,country\n",             // missing gold
		"player,time,action,role,country,gold,bogus\n",  // unknown column
		"player,player,time,action,role,country,gold\n", // repeated column
	}
	for _, hdr := range cases {
		if _, err := ReadCSV(strings.NewReader(hdr), schema); err == nil {
			t.Errorf("header %q accepted", hdr)
		}
	}
}

func TestReadCSVValueErrors(t *testing.T) {
	schema := PaperSchema()
	bad := "player,time,action,role,country,gold\n001,notatime,launch,dwarf,AU,0\n"
	if _, err := ReadCSV(strings.NewReader(bad), schema); err == nil {
		t.Error("bad time accepted")
	}
	bad = "player,time,action,role,country,gold\n001,100,launch,dwarf,AU,lots\n"
	if _, err := ReadCSV(strings.NewReader(bad), schema); err == nil {
		t.Error("bad int accepted")
	}
}

func TestSortByPKPropertyOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(PaperSchema())
		users := []string{"u1", "u2", "u3", "u4"}
		actions := []string{"launch", "shop", "fight"}
		used := map[[3]any]bool{}
		for i := 0; i < 100; i++ {
			u := users[rng.Intn(len(users))]
			ts := int64(rng.Intn(50))
			a := actions[rng.Intn(len(actions))]
			key := [3]any{u, ts, a}
			if used[key] {
				continue
			}
			used[key] = true
			if err := tbl.Append(u, ts, a, "r", "c", int64(rng.Intn(10))); err != nil {
				return false
			}
		}
		if err := tbl.SortByPK(); err != nil {
			return false
		}
		for i := 1; i < tbl.Len(); i++ {
			if tbl.User(i-1) > tbl.User(i) {
				return false
			}
			if tbl.User(i-1) == tbl.User(i) && tbl.Time(i-1) > tbl.Time(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMergeSortedPropertyMatchesSortByPK: splitting a random table into two
// sorted halves and merging them must reproduce the fully sorted table, and
// overlapping primary keys must be detected.
func TestMergeSortedPropertyMatchesSortByPK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// MergeSorted requires its inputs to share one schema instance.
		schema := PaperSchema()
		full := NewTable(schema)
		a, b := NewTable(schema), NewTable(schema)
		users := []string{"u1", "u2", "u3", "u4"}
		actions := []string{"launch", "shop", "fight"}
		used := map[[3]any]bool{}
		for i := 0; i < 80; i++ {
			u := users[rng.Intn(len(users))]
			ts := int64(rng.Intn(40))
			ac := actions[rng.Intn(len(actions))]
			key := [3]any{u, ts, ac}
			if used[key] {
				continue
			}
			used[key] = true
			dst := a
			if rng.Intn(2) == 1 {
				dst = b
			}
			gold := int64(rng.Intn(10))
			if err := dst.Append(u, ts, ac, "r", "c", gold); err != nil {
				return false
			}
			if err := full.Append(u, ts, ac, "r", "c", gold); err != nil {
				return false
			}
		}
		if a.SortByPK() != nil || b.SortByPK() != nil || full.SortByPK() != nil {
			return false
		}
		merged, err := MergeSorted(a, b)
		if err != nil || !merged.Sorted() || merged.Len() != full.Len() {
			return false
		}
		for c := 0; c < full.Schema().NumCols(); c++ {
			for r := 0; r < full.Len(); r++ {
				if full.Schema().IsStringCol(c) {
					if merged.Strings(c)[r] != full.Strings(c)[r] {
						return false
					}
				} else if merged.Ints(c)[r] != full.Ints(c)[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortedRejectsDuplicatePK(t *testing.T) {
	schema := PaperSchema()
	a, b := NewTable(schema), NewTable(schema)
	for _, tbl := range []*Table{a, b} {
		if err := tbl.Append("u", int64(5), "launch", "r", "c", int64(0)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SortByPK(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeSorted(a, b); err == nil {
		t.Fatal("MergeSorted accepted a cross-input primary-key violation")
	}
}

func TestAssertSortedByPK(t *testing.T) {
	tbl := NewTable(PaperSchema())
	for i, a := range []string{"launch", "shop"} {
		if err := tbl.Append("u", int64(i), a, "r", "c", int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AssertSortedByPK(); err != nil || !tbl.Sorted() {
		t.Fatalf("sorted rows rejected: %v", err)
	}
	bad := NewTable(PaperSchema())
	if err := bad.Append("u", int64(9), "launch", "r", "c", int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := bad.Append("u", int64(1), "shop", "r", "c", int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := bad.AssertSortedByPK(); err == nil || bad.Sorted() {
		t.Fatal("out-of-order rows passed AssertSortedByPK")
	}
	dup := NewTable(PaperSchema())
	for i := 0; i < 2; i++ {
		if err := dup.Append("u", int64(1), "launch", "r", "c", int64(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dup.AssertSortedByPK(); err == nil {
		t.Fatal("duplicate primary key passed AssertSortedByPK")
	}
}

func TestGrowReservesWithoutAppending(t *testing.T) {
	tbl := PaperTable1()
	n := tbl.Len()
	tbl.Grow(1000)
	if tbl.Len() != n || !tbl.Sorted() {
		t.Fatalf("Grow changed the table: %d rows (want %d), sorted = %v", tbl.Len(), n, tbl.Sorted())
	}
	for c := 0; c < tbl.Schema().NumCols(); c++ {
		room := cap(tbl.Ints(c)) - n
		if tbl.Schema().IsStringCol(c) {
			room = cap(tbl.Strings(c)) - n
		}
		if room < 1000 {
			t.Errorf("column %d has room for %d more rows, want >= 1000", c, room)
		}
	}
}
