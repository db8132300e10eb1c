//go:build race

package cimmlc

// raceEnabled reports whether the test binary was built with the race
// detector, which changes allocation counts.
const raceEnabled = true
