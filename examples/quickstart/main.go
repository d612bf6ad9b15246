// Quickstart: load the paper's Table 1 example data, run the Example 1
// cohort query (Q1 of Section 3.4), and print the result — the fastest way
// to see the three cohort operators working together.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Table 1 of the paper: ten activity tuples of three mobile-game
	// players (001 the Australian dwarf, 002 the US wizard, 003 the
	// Chinese bandit).
	table := cohana.PaperTable1()
	eng, err := cohana.NewEngine(table, cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Example 1: for players who played the dwarf role at their birth
	// time, cohort them by birth country and report the gold that country
	// launch cohorts spent on in-game shopping since they were born.
	out, err := eng.Query(context.Background(), `
		SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM GameActions
		BIRTH FROM action = "launch" AND role = "dwarf"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`)
	if err != nil {
		log.Fatal(err)
	}
	res := out.Cohort
	fmt.Println("Example 1 (launch cohorts of dwarf-born players, gold spent by age):")
	fmt.Println(res)

	// The same result pivoted the way the paper draws cohort reports
	// (Table 3 layout: one row per cohort, one column per age).
	fmt.Println("Pivoted (cohort x age):")
	if err := res.Pivot(0).WriteTable(logWriter{}); err != nil {
		log.Fatal(err)
	}
}

// logWriter routes table output through fmt to keep the example stdout-only.
type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
