//go:build race

package cohort

// raceEnabled reports a -race build, whose runtime drops sync.Pool puts at
// random and so changes allocation counts.
const raceEnabled = true
