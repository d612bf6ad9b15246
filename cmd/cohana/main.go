// Command cohana is the COHANA engine CLI: it ingests CSV activity data
// into the compressed columnar format, reports storage statistics, and runs
// cohort queries (including mixed queries) against ingested tables.
//
// Usage:
//
//	cohana ingest -in game.csv -out game.cohana [-chunk 262144]
//	cohana info  -table game.cohana
//	cohana query -table game.cohana -q 'SELECT country, COHORTSIZE, AGE,
//	    UserCount() FROM GameActions BIRTH FROM action = "launch" COHORT BY country'
//
// A query prefixed with EXPLAIN prints the optimized plan; EXPLAIN ANALYZE
// executes it and annotates the plan with measured per-shard and per-chunk
// timings and counters (rows scanned, value bytes decoded, chunks pruned).
//
// The ingest schema defaults to the paper's mobile-game schema (player,
// time, action, country, city, role, session, gold); pass -schema paper for
// the Table 1 example schema (player, time, action, role, country, gold).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "ingest":
		err = ingest(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohana:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cohana <ingest|info|query> [flags]")
	os.Exit(2)
}

func schemaByName(name string) (*cohana.Schema, error) {
	switch strings.ToLower(name) {
	case "game", "":
		return cohana.GameSchema(), nil
	case "paper":
		return cohana.PaperSchema(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q (want game or paper)", name)
	}
}

func ingest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "", "input CSV path")
	out := fs.String("out", "", "output .cohana path")
	chunk := fs.Int("chunk", 0, "chunk size in tuples (0 = 256K default)")
	shards := fs.Int("shards", 0, "user-hash shards (every count writes a COHANAS2 manifest plus per-chunk segment files; legacy single-file and COHANAS1 tables stay readable)")
	schemaName := fs.String("schema", "game", "schema: game or paper")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("ingest needs -in and -out")
	}
	schema, err := schemaByName(*schemaName)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tbl, err := cohana.ReadCSV(f, schema)
	if err != nil {
		return err
	}
	eng, err := cohana.NewEngine(tbl, cohana.Options{ChunkSize: *chunk, Shards: *shards})
	if err != nil {
		return err
	}
	if err := eng.Save(context.Background(), *out); err != nil {
		return err
	}
	s := eng.Stats()
	fmt.Printf("ingested %d tuples / %d users into %d shards / %d chunks (%d bytes compressed)\n",
		s.Rows, s.Users, s.Shards, s.Chunks, s.EncodedSize)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	table := fs.String("table", "", ".cohana table path")
	fs.Parse(args)
	if *table == "" {
		return fmt.Errorf("info needs -table")
	}
	eng, err := cohana.Open(*table, cohana.Options{})
	if err != nil {
		return err
	}
	s := eng.Stats()
	fmt.Printf("rows:        %d\nusers:       %d\nshards:      %d\nchunks:      %d\nchunk size:  %d\ncompressed:  %d bytes\n",
		s.Rows, s.Users, s.Shards, s.Chunks, s.ChunkSize, s.EncodedSize)
	schema := eng.Schema()
	fmt.Println("columns:")
	for i := 0; i < schema.NumCols(); i++ {
		c := schema.Col(i)
		fmt.Printf("  %-10s %-7s %s\n", c.Name, c.Type, c.Kind)
	}
	return nil
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	table := fs.String("table", "", ".cohana table path")
	src := fs.String("q", "", "cohort query (or mixed query) text")
	parallel := fs.Int("parallel", 0, "chunk parallelism (0 = single-threaded)")
	fs.Parse(args)
	if *table == "" || *src == "" {
		return fmt.Errorf("query needs -table and -q")
	}
	eng, err := cohana.Open(*table, cohana.Options{Parallelism: *parallel})
	if err != nil {
		return err
	}
	out, err := eng.Query(context.Background(), *src)
	if err != nil {
		return err
	}
	switch {
	case out.Cohort != nil:
		fmt.Print(out.Cohort)
	case out.Mixed != nil:
		fmt.Print(out.Mixed)
	default:
		fmt.Print(out.Explain)
	}
	return nil
}
