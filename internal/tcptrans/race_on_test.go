//go:build race

package tcptrans

const raceEnabled = true
