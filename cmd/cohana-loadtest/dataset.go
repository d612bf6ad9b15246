package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/activity"
	"repro/internal/gen"
	"repro/internal/storage"
)

// Dataset D2: the paper's scale-1 user count at scale factor 2, stored as 2
// shards of 32K-row chunks. At this size Q1-Q4 take 5-25 ms served, which is
// what gives a latency gate something to trip on.
const (
	d2Users   = 57077
	d2Scale   = 2
	shards    = 2
	chunkSize = 32768
	tableName = "game"
)

// pin identifies the rows one generator configuration yields.
type pin struct {
	GenUsers int    `json:"genUsers"`
	GenScale int    `json:"genScale"`
	Seed     int64  `json:"seed"`
	Rows     int    `json:"rows"`
	Users    int    `json:"users"`
	SHA256   string `json:"sha256"`
}

// sizing describes the generated table; it is recorded with every result so
// a number can always be read against the input that produced it.
type sizing struct {
	pin
	Shards int `json:"shards"`
	Chunks int `json:"chunks"`
}

//go:embed testdata/pins.json
var pinsJSON []byte

// checkPin fails when a pinned (users, scale, seed) generates anything but
// the recorded rows, so a change to internal/gen cannot silently change what
// the benchmark measures. Unpinned seeds pass: the driver picks its own.
func checkPin(sz pin) error {
	var pins []pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("testdata/pins.json: %w", err)
	}
	for _, p := range pins {
		if p.GenUsers != sz.GenUsers || p.GenScale != sz.GenScale || p.Seed != sz.Seed {
			continue
		}
		if p.Rows != sz.Rows || p.Users != sz.Users || p.SHA256 != sz.SHA256 {
			return fmt.Errorf("dataset for seed %d is not the pinned one: generated %d rows, %d users, sha256 %s; testdata/pins.json records %d rows, %d users, sha256 %s",
				sz.Seed, sz.Rows, sz.Users, sz.SHA256, p.Rows, p.Users, p.SHA256)
		}
	}
	return nil
}

// hashRows is the SHA-256 of the generated rows in primary-key order, one
// tab-separated line per row.
func hashRows(t *activity.Table) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	s := t.Schema()
	var num []byte
	for r := 0; r < t.Len(); r++ {
		for c := 0; c < s.NumCols(); c++ {
			if c > 0 {
				w.WriteByte('\t')
			}
			if s.IsStringCol(c) {
				w.WriteString(t.Strings(c)[r])
			} else {
				num = strconv.AppendInt(num[:0], t.Ints(c)[r], 10)
				w.Write(num)
			}
		}
		w.WriteByte('\n')
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// template is the table every workload of one invocation starts from.
type template struct {
	dir     string
	base    *activity.Table
	sizing  sizing
	datagen time.Duration // synthetic row generation, not part of set-up
	build   time.Duration // storage.BuildSharded, median of setupReps
	commit  time.Duration // storage.CommitSharded, median of setupReps
}

// setupReps is how many times the table is built and committed; set-up time
// is reported as the median, so one slow build does not pass for a change.
const setupReps = 3

// buildTemplate generates the rows for (users, scale, seed), checks them
// against the pin, and builds and commits the sharded table setupReps times,
// each into a fresh directory under work. The last one is the template.
func buildTemplate(work string, users, scale int, seed int64) (*template, error) {
	start := time.Now()
	base := gen.Generate(gen.Config{Users: users, Scale: scale, Seed: seed})
	t := &template{base: base, datagen: time.Since(start)}
	t.sizing = sizing{pin: pin{GenUsers: users, GenScale: scale, Seed: seed, Rows: base.Len(), Users: base.NumUsers(), SHA256: hashRows(base)}, Shards: shards}
	if err := checkPin(t.sizing.pin); err != nil {
		return nil, err
	}
	var buildS, commitS []float64
	for i := 0; i < setupReps; i++ {
		if t.dir != "" {
			if err := os.RemoveAll(t.dir); err != nil {
				return nil, err
			}
		}
		t.dir = filepath.Join(work, fmt.Sprintf("template-%d", i))
		if err := os.Mkdir(t.dir, 0o755); err != nil {
			return nil, err
		}
		start = time.Now()
		sharded, err := storage.BuildSharded(base, shards, storage.Options{ChunkSize: chunkSize})
		if err != nil {
			return nil, fmt.Errorf("building the table: %w", err)
		}
		buildS = append(buildS, time.Since(start).Seconds())
		start = time.Now()
		if _, err := storage.CommitSharded(filepath.Join(t.dir, tableName+".cohana"), sharded); err != nil {
			return nil, fmt.Errorf("committing the table: %w", err)
		}
		commitS = append(commitS, time.Since(start).Seconds())
		t.sizing.Chunks = sharded.NumChunks()
	}
	t.build = time.Duration(median(buildS) * float64(time.Second))
	t.commit = time.Duration(median(commitS) * float64(time.Second))
	return t, nil
}

// appendRow is one row of an append request, keyed by GameSchema's column
// names.
type appendRow struct {
	Player  string `json:"player"`
	Time    int64  `json:"time"`
	Action  string `json:"action"`
	Country string `json:"country"`
	City    string `json:"city"`
	Role    string `json:"role"`
	Session int64  `json:"session"`
	Gold    int64  `json:"gold"`
}

func (r appendRow) tuple() tuple {
	return tuple{time: r.Time, action: r.Action, country: r.Country, city: r.City, role: r.Role, gold: r.Gold}
}

const batchRows = 100

var (
	appendPlaces = [][2]string{{"China", "Beijing"}, {"United States", "New York"}, {"Japan", "Tokyo"}, {"Australia", "Sydney"}}
	appendRoles  = []string{"dwarf", "wizard", "bandit", "assassin"}
)

// appendBatch returns the idx-th 100-row batch of the seeded write stream.
// 80 rows extend existing users past the 39-day window; they are drawn from
// the newest fiftieth of the user ids, as in a live game where the recently
// joined play most, so a compaction touches the chunks that hold those users
// and not the whole shard. 20 rows are 4 new users, each a launch and four
// later actions. Timestamps are unique per (batch, row), so no batch can
// collide with the table or with another batch.
func appendBatch(seed int64, users, idx int) []appendRow {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	at := gen.StartTime + 39*secondsPerDay + int64(idx)*1000
	hot := max(users/50, 1)
	row := func(player string, ts int64, action string) appendRow {
		place := appendPlaces[rng.Intn(len(appendPlaces))]
		r := appendRow{Player: player, Time: ts, Action: action, Country: place[0], City: place[1],
			Role: appendRoles[rng.Intn(len(appendRoles))], Session: int64(5 + rng.Intn(55))}
		if action == "shop" {
			r.Gold = int64(1 + rng.Intn(60))
		}
		return r
	}
	rows := make([]appendRow, 0, batchRows)
	for j := 0; j < 80; j++ {
		player := fmt.Sprintf("player-%07d", users-1-rng.Intn(hot))
		rows = append(rows, row(player, at+int64(j), gen.Actions[rng.Intn(len(gen.Actions))]))
	}
	for u := 0; u < 4; u++ {
		player := fmt.Sprintf("live-%07d-%d", idx, u)
		born := at + 100 + int64(u)
		rows = append(rows, row(player, born, "launch"))
		for d := 1; d <= 4; d++ {
			rows = append(rows, row(player, born+int64(d)*secondsPerDay, gen.Actions[1+rng.Intn(len(gen.Actions)-1)]))
		}
	}
	return rows
}
