// Mixed queries (Section 3.5): a cohort query runs as a WITH sub-query, and
// a plain SQL outer query filters, orders and limits its result. The
// "cohort query first" evaluation rule means the outer query can never
// disturb birth activity tuples — it only sees aggregated buckets.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	table := cohana.Generate(cohana.GenConfig{Users: 600, Seed: 3})
	eng, err := cohana.NewEngine(table, cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Section 3.5 example, extended with ORDER BY and LIMIT:
	// pick two countries' spend trends out of the full cohort report.
	ctx := context.Background()
	out, err := eng.Query(ctx, `
		WITH cohorts AS (
			SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
			FROM GameActions
			BIRTH FROM action = "launch"
			AGE ACTIVITIES IN action = "shop"
			COHORT BY country
		)
		SELECT country, AGE, spent FROM cohorts
		WHERE country IN ["Australia", "China"]
		ORDER BY spent DESC
		LIMIT 10`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Top spend buckets for the Australia and China launch cohorts:")
	fmt.Println(out.Mixed)

	// Outer filters can also mix cohort attributes with computed columns.
	out2, err := eng.Query(ctx, `
		WITH cohorts AS (
			SELECT country, COHORTSIZE, AGE, UserCount()
			FROM GameActions
			BIRTH FROM action = "launch"
			COHORT BY country
		)
		SELECT country, COHORTSIZE, AGE, UserCount FROM cohorts
		WHERE COHORTSIZE >= 20 AND AGE BETWEEN 1 AND 7
		ORDER BY country LIMIT 15`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("First-week retention for cohorts with at least 20 players:")
	fmt.Println(out2.Mixed)
}
