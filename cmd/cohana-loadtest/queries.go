package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/gen"
)

// spec is one cohort query of the benchmark in structured form. The query
// text sent to the server (text) and the expected result (oracle.go) are
// both derived from it, so the harness never has to understand the
// program's parser to know what a correct answer is.
type spec struct {
	// Template names the shape for the per-template client medians:
	// count_full, count_born, avg_full or avg_born.
	Template string `json:"template"`
	// BirthAction is the action that defines a user's birth tuple.
	BirthAction string `json:"birthAction"`
	// BirthFrom/BirthTo, when non-empty, bound the birth tuple's time
	// (inclusive, "2006-01-02" dates at midnight UTC).
	BirthFrom string `json:"birthFrom,omitempty"`
	BirthTo   string `json:"birthTo,omitempty"`
	// BirthRole / BirthCountries restrict the birth tuple (Q4 only).
	BirthRole      string   `json:"birthRole,omitempty"`
	BirthCountries []string `json:"birthCountries,omitempty"`
	// AgeAction restricts aggregated tuples to one action.
	AgeAction string `json:"ageAction,omitempty"`
	// AgeBelow, when > 0, keeps only tuples with AGE < AgeBelow.
	AgeBelow int `json:"ageBelow,omitempty"`
	// SameCountry keeps only tuples whose country equals the birth tuple's.
	SameCountry bool `json:"sameCountry,omitempty"`
	// CohortBy lists the birth attributes that label the cohort.
	CohortBy []string `json:"cohortBy"`
	// AvgGold selects Avg(gold); otherwise the aggregate is UserCount().
	AvgGold bool `json:"avgGold,omitempty"`
}

// text renders the spec in the paper's cohort syntax, in the layout of the
// Q1-Q8 templates of internal/bench/queries.go.
func (s spec) text() string {
	agg := "UserCount()"
	if s.AvgGold {
		agg = "Avg(gold)"
	}
	keys := strings.Join(s.CohortBy, ", ")
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s, COHORTSIZE, AGE, %s\n", keys, agg)
	fmt.Fprintf(&b, "FROM GameActions BIRTH FROM action = %q", s.BirthAction)
	if s.BirthFrom != "" {
		fmt.Fprintf(&b, " AND\ntime BETWEEN %q AND %q", s.BirthFrom, s.BirthTo)
	}
	if s.BirthRole != "" {
		fmt.Fprintf(&b, " AND\nrole = %q", s.BirthRole)
	}
	if len(s.BirthCountries) > 0 {
		quoted := make([]string, len(s.BirthCountries))
		for i, c := range s.BirthCountries {
			quoted[i] = fmt.Sprintf("%q", c)
		}
		fmt.Fprintf(&b, " AND\ncountry IN [%s]", strings.Join(quoted, ", "))
	}
	var age []string
	if s.AgeAction != "" {
		age = append(age, fmt.Sprintf("action = %q", s.AgeAction))
	}
	if s.SameCountry {
		age = append(age, "country = Birth(country)")
	}
	if s.AgeBelow > 0 {
		age = append(age, fmt.Sprintf("AGE < %d", s.AgeBelow))
	}
	if len(age) > 0 {
		fmt.Fprintf(&b, "\nAGE ACTIVITIES IN %s", strings.Join(age, " AND "))
	}
	fmt.Fprintf(&b, "\nCOHORT BY %s", keys)
	return b.String()
}

// fixedQueries are Q1-Q4 of the paper's Section 5.2, the texts the
// dashboard-repeat and ingest-mixed readers repeat and the correctness gate
// checks first. Their templates line up with the ad-hoc ones: Q1 scans every
// launch cohort, Q2 restricts the birth date, Q3/Q4 do the same for shop
// cohorts with an average.
func fixedQueries() []spec {
	country := []string{"country"}
	return []spec{
		{Template: "count_full", BirthAction: "launch", CohortBy: country},
		{Template: "count_born", BirthAction: "launch", BirthFrom: "2013-05-21", BirthTo: "2013-05-27", CohortBy: country},
		{Template: "avg_full", BirthAction: "shop", AgeAction: "shop", CohortBy: country, AvgGold: true},
		{Template: "avg_born", BirthAction: "shop", BirthFrom: "2013-05-21", BirthTo: "2013-05-27",
			BirthRole: "dwarf", BirthCountries: []string{"China", "Australia", "United States"},
			AgeAction: "shop", SameCountry: true, CohortBy: country, AvgGold: true},
	}
}

// cycleLen is the number of distinct ad-hoc texts: 4x the server's 256-entry
// result and plan caches, so an LRU walked in cycle order never hits.
const cycleLen = 1024

// adhocCycle returns the 1,024 distinct ad-hoc queries in seeded order. The
// set is the same for every seed — the full grid of the Q5/Q6/Q7/Q8
// templates over birth date range, age bound and COHORT BY — and the seed
// only permutes it, so two seeds measure the same mix of work.
func adhocCycle(seed int64) []spec {
	cohorts := [][]string{{"country"}, {"city"}, {"role"}, {"country", "role"}}
	day := func(d int) string {
		return time.Unix(gen.StartTime, 0).UTC().AddDate(0, 0, d).Format("2006-01-02")
	}
	var out []spec
	// Q7/Q8: every user born, ages below a bound. 32 bounds x 4 keys, twice.
	for g := 2; g < 34; g++ {
		for _, by := range cohorts {
			out = append(out,
				spec{Template: "count_full", BirthAction: "launch", AgeBelow: g, CohortBy: by},
				spec{Template: "avg_full", BirthAction: "shop", AgeAction: "shop", AgeBelow: g, CohortBy: by, AvgGold: true})
		}
	}
	// Q5/Q6: a birth date range. 12 start days x 8 widths x 4 keys, twice.
	// Births fall in the first 31 days of the window, so every range holds
	// some; start days are odd so that no entry repeats Q2, which the
	// correctness gate has already left in the result cache.
	for d1 := 1; d1 < 24; d1 += 2 {
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
			for _, by := range cohorts {
				from, to := day(d1), day(d1+width)
				out = append(out,
					spec{Template: "count_born", BirthAction: "launch", BirthFrom: from, BirthTo: to, CohortBy: by},
					spec{Template: "avg_born", BirthAction: "shop", BirthFrom: from, BirthTo: to, AgeAction: "shop", CohortBy: by, AvgGold: true})
			}
		}
	}
	if len(out) != cycleLen {
		panic(fmt.Sprintf("ad-hoc grid has %d queries, want %d", len(out), cycleLen))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
