//go:build race

package storage_test

// raceEnabled reports whether the race detector is instrumenting this
// build; the exhaustive index checks thin their predicates under it.
const raceEnabled = true
