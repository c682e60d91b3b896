//go:build race

package simcluster

const raceEnabled = true
