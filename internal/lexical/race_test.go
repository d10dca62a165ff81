//go:build race

package lexical

const raceEnabled = true
