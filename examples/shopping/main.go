// Shopping-trend analysis: the paper's running example. Uses shop births,
// a birth-time date range, and a Birth() age filter (the paper's Q4 shape,
// Section 5.2) to ask: for players who started shopping in their first
// week, how much gold do country cohorts spend per day of age when they
// shop in their birth country?
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	table := cohana.Generate(cohana.GenConfig{Users: 800, Seed: 21})
	eng, err := cohana.NewEngine(table, cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Q3: average spend per (country shop cohort, age).
	ctx := context.Background()
	out, err := eng.Query(ctx, `
		SELECT country, COHORTSIZE, AGE, Avg(gold)
		FROM GameActions
		BIRTH FROM action = "shop"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q3 — average gold per shop by country shop cohort and age (day):")
	if err := out.Cohort.Pivot(0).WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Q4: add a birth date range, a birth-country list, and the Birth()
	// filter: only shopping done in the player's birth country counts.
	out4, err := eng.Query(ctx, `
		SELECT country, COHORTSIZE, AGE, Avg(gold)
		FROM GameActions
		BIRTH FROM action = "shop" AND
			time BETWEEN "2013-05-21" AND "2013-05-27" AND
			country IN ["China", "Australia", "United States"]
		AGE ACTIVITIES IN action = "shop" AND country = Birth(country)
		COHORT BY country`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ4 — same, restricted to May-21..27 births in three countries,")
	fmt.Println("counting only shopping in the birth country (Birth() filter):")
	fmt.Println(out4.Cohort)

	// Tuple-level view: materialize σg(σb(D)) for the Q4 operators and
	// report how many activity tuples survive each composition.
	all := eng.Stats().Rows
	fmt.Printf("activity tuples in D: %d\n", all)
}
