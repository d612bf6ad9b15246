package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
)

// The oracle is the benchmark's own statement of what a cohort query means
// (the paper's Definitions 3-6), written as one pass over each user's rows
// with no index, no encoding and no sharing with the engine under test. It
// answers a spec in tens of milliseconds at D2 scale, which is what lets
// every run check the served results; main_test.go pins it to
// internal/baseline, the repository's slow reference, at a scale where that
// one is affordable.

// tuple is one activity row in the oracle's own form.
type tuple struct {
	time                        int64
	action, country, city, role string
	gold                        int64
}

func (t tuple) attr(name string) string {
	switch name {
	case "country":
		return t.country
	case "city":
		return t.city
	case "role":
		return t.role
	}
	panic("oracle: no cohort attribute " + name)
}

// resultRow is one (cohort, age) bucket, the shape of a served response row.
type resultRow struct {
	Cohort []string   `json:"cohort"`
	Age    int64      `json:"age"`
	Size   int64      `json:"size"`
	Aggs   []*float64 `json:"aggs"`
}

func (r resultRow) key() string {
	return fmt.Sprintf("%s\x00%d", strings.Join(r.Cohort, "\x00"), r.Age)
}

// dataset is what the oracle reads: the generated base table plus the rows
// acknowledged by the server since (keyed by user; nil on read-only
// workloads).
type dataset struct {
	base  *activity.Table
	extra map[string][]tuple
}

// eachUser calls fn once per user with that user's rows in (time, action)
// order.
func (d dataset) eachUser(fn func(rows []tuple)) {
	s := d.base.Schema()
	times := d.base.Ints(s.TimeCol())
	actions := d.base.Strings(s.ActionCol())
	countries := d.base.Strings(s.ColIndex("country"))
	cities := d.base.Strings(s.ColIndex("city"))
	roles := d.base.Strings(s.ColIndex("role"))
	gold := d.base.Ints(s.ColIndex("gold"))
	seen := make(map[string]bool, len(d.extra))
	var buf []tuple
	d.base.UserBlocks(func(user string, start, end int) {
		buf = buf[:0]
		for i := start; i < end; i++ {
			buf = append(buf, tuple{times[i], actions[i], countries[i], cities[i], roles[i], gold[i]})
		}
		if more, ok := d.extra[user]; ok {
			seen[user] = true
			buf = append(buf, more...)
			sortTuples(buf)
		}
		fn(buf)
	})
	for user, rows := range d.extra {
		if !seen[user] {
			sortTuples(rows)
			fn(rows)
		}
	}
}

func sortTuples(rows []tuple) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].time != rows[j].time {
			return rows[i].time < rows[j].time
		}
		return rows[i].action < rows[j].action
	})
}

const secondsPerDay = 24 * 60 * 60

func dateSeconds(date string) int64 {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		panic(err)
	}
	return t.Unix()
}

// answer evaluates s over d. A user is born at their first tuple performing
// the birth action and qualifies when that tuple passes the birth
// conditions; the cohort is read off the birth tuple; a later tuple has age
// floor(delta/day)+1 and is aggregated into (cohort, age) when it passes the
// age conditions. Only buckets that received a tuple are reported.
func answer(s spec, d dataset) []resultRow {
	type bucket struct {
		cohort     []string
		age        int64
		users, cnt int64
		sum        int64
		lastUser   int
	}
	type bucketKey struct {
		cohort string
		age    int64
	}
	sizes := map[string]int64{}
	buckets := map[bucketKey]*bucket{}
	var from, to int64
	if s.BirthFrom != "" {
		from, to = dateSeconds(s.BirthFrom), dateSeconds(s.BirthTo)
	}
	userNo := 0
	d.eachUser(func(rows []tuple) {
		userNo++
		birth := -1
		for i, r := range rows {
			if r.action == s.BirthAction {
				birth = i
				break
			}
		}
		if birth < 0 {
			return
		}
		b := rows[birth]
		if s.BirthFrom != "" && (b.time < from || b.time > to) {
			return
		}
		if s.BirthRole != "" && b.role != s.BirthRole {
			return
		}
		if len(s.BirthCountries) > 0 {
			in := false
			for _, c := range s.BirthCountries {
				in = in || c == b.country
			}
			if !in {
				return
			}
		}
		cohort := make([]string, len(s.CohortBy))
		for i, name := range s.CohortBy {
			cohort[i] = b.attr(name)
		}
		ckey := strings.Join(cohort, "\x00")
		sizes[ckey]++
		for _, r := range rows {
			if r.time <= b.time {
				continue
			}
			age := (r.time-b.time)/secondsPerDay + 1
			if s.AgeAction != "" && r.action != s.AgeAction {
				continue
			}
			if s.SameCountry && r.country != b.country {
				continue
			}
			if s.AgeBelow > 0 && age >= int64(s.AgeBelow) {
				continue
			}
			bk := buckets[bucketKey{ckey, age}]
			if bk == nil {
				bk = &bucket{cohort: cohort, age: age}
				buckets[bucketKey{ckey, age}] = bk
			}
			if bk.lastUser != userNo {
				bk.lastUser = userNo
				bk.users++
			}
			bk.cnt++
			bk.sum += r.gold
		}
	})
	out := make([]resultRow, 0, len(buckets))
	for _, bk := range buckets {
		v := float64(bk.users)
		if s.AvgGold {
			v = float64(bk.sum) / float64(bk.cnt)
		}
		out = append(out, resultRow{
			Cohort: bk.cohort, Age: bk.age,
			Size: sizes[strings.Join(bk.cohort, "\x00")],
			Aggs: []*float64{&v},
		})
	}
	return out
}

// sameRows reports the first difference between a served result and the
// expected one, comparing aggregate values by their float bits; "" means
// equal. Row order is not part of the contract checked here — byte identity
// across repeats of one text is checked separately.
func sameRows(got, want []resultRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows served, %d expected", len(got), len(want))
	}
	index := make(map[string]resultRow, len(want))
	for _, w := range want {
		index[w.key()] = w
	}
	for _, g := range got {
		w, ok := index[g.key()]
		if !ok {
			return fmt.Sprintf("served bucket %q not expected", g.key())
		}
		if g.Size != w.Size || len(g.Aggs) != len(w.Aggs) {
			return fmt.Sprintf("bucket %q: size %d/%d aggs, expected size %d/%d aggs", g.key(), g.Size, len(g.Aggs), w.Size, len(w.Aggs))
		}
		for i := range g.Aggs {
			if g.Aggs[i] == nil || math.Float64bits(*g.Aggs[i]) != math.Float64bits(*w.Aggs[i]) {
				return fmt.Sprintf("bucket %q: aggregate %d differs from expected %v", g.key(), i, *w.Aggs[i])
			}
		}
	}
	return ""
}
