//go:build race

package memoserver

func init() { raceBuilt = true }
