//go:build race

// Package raceflag tells tests whether the race detector is compiled in:
// allocation budgets do not hold under it (it allocates shadow state of its
// own and makes sync.Pool drop entries at random).
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = true
