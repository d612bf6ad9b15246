// Retention analysis: the paper's flagship application (Sections 1 and
// 4.5). Generates a synthetic game trace, cohorts players by the week of
// their first launch, counts retained users per (cohort, age) with the
// UserCount() aggregate, and renders the classic retention matrix (Table 3 /
// Figure 1) as a table and an ASCII heat map.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"repro"
)

func main() {
	fmt.Println("Generating a synthetic mobile-game trace (800 users, 39 days)...")
	table := cohana.Generate(cohana.GenConfig{Users: 800, Seed: 7})
	eng, err := cohana.NewEngine(table, cohana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s := eng.Stats()
	fmt.Printf("%d activity tuples, %d players, %d chunks, %d bytes compressed\n\n",
		s.Rows, s.Users, s.Chunks, s.EncodedSize)

	// Weekly launch cohorts; ages in weeks; one retained-user count per
	// (cohort, age) bucket.
	out, err := eng.Query(context.Background(), `
		SELECT COHORTSIZE, AGE, UserCount()
		FROM GameActions
		BIRTH FROM action = "launch"
		COHORT BY time(week)
		AGE UNIT weeks`)
	if err != nil {
		log.Fatal(err)
	}
	m := out.Cohort.Pivot(0)
	fmt.Println("Weekly launch cohorts: retained users by age (weeks):")
	if err := m.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Retention rates as an ASCII heat map, normalized by cohort size —
	// reading rows shows the aging effect, columns the cohort differences.
	fmt.Println("\nRetention heat map (row = cohort, column = age, darker = higher):")
	shades := []rune(" .:-=+*#%@")
	for i, cohort := range m.Cohorts {
		fmt.Printf("%-12s |", cohort)
		for _, v := range m.Cells[i] {
			if math.IsNaN(v) || m.Sizes[i] == 0 {
				fmt.Print(" ")
				continue
			}
			rate := v / float64(m.Sizes[i])
			idx := int(rate * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			fmt.Print(string(shades[idx]))
		}
		fmt.Printf("| size %d\n", m.Sizes[i])
	}
	fmt.Println("\nReading a row left-to-right shows decay with age (the aging effect);")
	fmt.Println("comparing rows top-to-bottom shows later cohorts retaining better")
	fmt.Println("(the social-change effect of iterative game development).")
}
