//go:build !race

package storage_test

const raceEnabled = false
