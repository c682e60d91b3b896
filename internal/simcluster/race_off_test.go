//go:build !race

package simcluster

const raceEnabled = false
