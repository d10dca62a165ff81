package lexical

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// benchIndex is the serving benchmark's hybrid corpus shape: 10,000
// documents of 4-8 words drawn from a 26-word vocabulary, one document
// in 50 also carrying a token of its own. A two-common-word query scans
// about 4,160 postings over about 3,900 distinct documents.
func benchIndex() *Index {
	rng := rand.New(rand.NewSource(98))
	x := NewIndex(Config{})
	for id := 0; id < 10000; id++ {
		var b strings.Builder
		for j, n := 0, 4+rng.Intn(5); j < n; j++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
			b.WriteString("word ")
		}
		if id%50 == 0 {
			b.WriteString("needle" + strconv.Itoa(id))
		}
		x.Set(int64(id), b.String(), nil)
	}
	return x
}

var benchSink []Scored

func BenchmarkSearch(b *testing.B) {
	x := benchIndex()
	for _, c := range []struct{ name, query string }{
		{"two_common", "cword qword"},
		{"needle", "needle4200"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = x.Search(c.query, 40, nil)
			}
		})
	}
}

// TestSearchAllocCeiling pins what a search allocates once the scratch
// pool is warm: the token slice and its backing text, the de-duplication
// map, and the result. A ceiling that grows means per-document or
// per-posting state has crept back onto the heap.
func TestSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	x := benchIndex()
	const ceiling = 5
	if got := testing.AllocsPerRun(50, func() { benchSink = x.Search("cword qword", 40, nil) }); got > ceiling {
		t.Fatalf("two-common-word search allocates %v times, ceiling %d", got, ceiling)
	}
}
