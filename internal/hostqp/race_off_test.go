//go:build !race

package hostqp

const raceEnabled = false
