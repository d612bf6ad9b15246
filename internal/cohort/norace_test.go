//go:build !race

package cohort

const raceEnabled = false
