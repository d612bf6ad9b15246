package cohana_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExampleEngine_Query runs the paper's Example 1 against the Table 1
// fixture: dwarf-born launch cohorts by country, gold spent on shopping per
// day of age.
func ExampleEngine_Query() {
	eng, err := cohana.NewEngine(cohana.PaperTable1(), cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := eng.Query(context.Background(), `
		SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
		FROM GameActions
		BIRTH FROM action = "launch" AND role = "dwarf"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range out.Cohort.Rows {
		fmt.Printf("%s size=%d age=%d spent=%.0f\n", row.Cohort[0], row.Size, row.Age, row.Aggs[0])
	}
	// Output:
	// Australia size=1 age=1 spent=50
	// Australia size=1 age=2 spent=100
	// Australia size=1 age=3 spent=50
}

// ExampleEngine_Query_mixed shows a Section 3.5 mixed query: the cohort
// sub-query runs first, then the outer SQL filters its result.
func ExampleEngine_Query_mixed() {
	eng, err := cohana.NewEngine(cohana.PaperTable1(), cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := eng.Query(context.Background(), `
		WITH cohorts AS (
			SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
			FROM GameActions
			BIRTH FROM action = "launch"
			COHORT BY country
		)
		SELECT country, AGE, spent FROM cohorts
		WHERE spent >= 50 ORDER BY spent DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range out.Mixed.Rows {
		fmt.Println(row[0], row[1], row[2])
	}
	// Output:
	// Australia 2 100
	// Australia 1 50
	// Australia 3 50
}
