//go:build !race

package targetqp

const raceEnabled = false
