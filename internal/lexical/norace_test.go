//go:build !race

package lexical

const raceEnabled = false
