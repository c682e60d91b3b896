//go:build !race

package tcptrans

const raceEnabled = false
