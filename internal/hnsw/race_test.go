//go:build race

package hnsw

const raceEnabled = true
