//go:build !race

package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = false
