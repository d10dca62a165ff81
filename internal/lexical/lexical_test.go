package lexical

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   \t\n", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"foo_bar-baz.qux", []string{"foo", "bar", "baz", "qux"}},
		{"ANN search 2026", []string{"ann", "search", "2026"}},
		{"Caffè Ünïcode Ω", []string{"caffè", "ünïcode", "ω"}},
		{"a1b2", []string{"a1b2"}},
		{"--!!--", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Tokenization must be a fixed point under re-tokenization and never
// emit empty terms — the durability layer depends on the tokenizer
// being a pure deterministic function of the text.
func TestTokenizeStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abcXYZ 0189,.;!帽子ångström-\t\n_ω")
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		n := rng.Intn(120)
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("empty term for input %q", s)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("non-lowercase term %q for input %q", tok, s)
			}
		}
		again := Tokenize(strings.Join(toks, " "))
		if !reflect.DeepEqual(again, toks) {
			t.Fatalf("unstable tokenization of %q: %v then %v", s, toks, again)
		}
	}
}

func TestTokenizeLongRunSplits(t *testing.T) {
	s := strings.Repeat("a", MaxTermRunes*2+3)
	toks := Tokenize(s)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	for i, tok := range toks[:2] {
		if len(tok) != MaxTermRunes {
			t.Fatalf("token %d has %d runes", i, len(tok))
		}
	}
	if len(toks[2]) != 3 {
		t.Fatalf("tail token has %d runes, want 3", len(toks[2]))
	}
}

func TestStopwords(t *testing.T) {
	x := NewIndex(Config{Stopwords: DefaultStopwords})
	x.Set(1, "the quick brown fox", nil)
	if got := x.Search("the", 10, nil); got != nil {
		t.Fatalf("stopword query returned %v", got)
	}
	if got := x.Search("the quick", 10, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("mixed query returned %v", got)
	}
}

func TestBM25RankingBasics(t *testing.T) {
	x := NewIndex(Config{})
	x.Set(1, "vector search engine", nil)
	x.Set(2, "vector vector vector quantization", nil)
	x.Set(3, "lexical inverted index", nil)
	x.Set(4, "search quality metrics", nil)

	got := x.Search("vector", 10, nil)
	if len(got) != 2 {
		t.Fatalf("got %d hits, want 2: %v", len(got), got)
	}
	// Doc 2 has tf=3 for "vector": higher BM25 despite longer doc.
	if got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("ranking %v, want [2 1]", got)
	}
	if got[0].Score <= got[1].Score {
		t.Fatalf("scores not descending: %v", got)
	}

	// A rarer term outranks a common one for a doc containing both.
	got = x.Search("lexical search", 10, nil)
	if len(got) == 0 || got[0].ID != 3 {
		t.Fatalf("rare-term ranking %v, want doc 3 first", got)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	x := NewIndex(Config{})
	x.Set(1, "alpha beta", []float32{1, 2})
	x.Set(1, "gamma delta", []float32{3, 4})
	if got := x.Search("alpha", 10, nil); got != nil {
		t.Fatalf("stale posting scored: %v", got)
	}
	if got := x.Search("gamma", 10, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("overwritten doc not found: %v", got)
	}
	if v, ok := x.Vector(1); !ok || !reflect.DeepEqual(v, []float32{3, 4}) {
		t.Fatalf("vector = %v, %v", v, ok)
	}
	if txt, ok := x.Text(1); !ok || txt != "gamma delta" {
		t.Fatalf("text = %q, %v", txt, ok)
	}
	x.Delete(1)
	if got := x.Search("gamma", 10, nil); got != nil {
		t.Fatalf("deleted doc scored: %v", got)
	}
	if x.Docs() != 0 {
		t.Fatalf("docs = %d, want 0", x.Docs())
	}
}

func TestAllowPredicate(t *testing.T) {
	x := NewIndex(Config{})
	for i := int64(0); i < 10; i++ {
		x.Set(i, "shared term", nil)
	}
	got := x.Search("shared", 20, func(id int64) bool { return id%2 == 0 })
	if len(got) != 5 {
		t.Fatalf("got %d hits, want 5", len(got))
	}
	for _, s := range got {
		if s.ID%2 != 0 {
			t.Fatalf("predicate leaked id %d", s.ID)
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	x := NewIndex(Config{})
	// Identical docs -> identical scores -> ascending-ID order.
	for _, id := range []int64{9, 3, 7, 1, 5} {
		x.Set(id, "same text here", nil)
	}
	got := x.Search("same text", 3, nil)
	want := []int64{1, 3, 5}
	for i, s := range got {
		if s.ID != want[i] {
			t.Fatalf("tie-break order %v, want %v", got, want)
		}
	}
}

// Restore must reproduce rankings and the canonical dump exactly, even
// when the source index accumulated stale postings from overwrites.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	x := NewIndex(Config{K1: 1.4, B: 0.6})
	rng := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < 300; i++ {
		id := int64(rng.Intn(80))
		var b strings.Builder
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		x.Set(id, b.String(), []float32{float32(id)})
	}
	for i := 0; i < 10; i++ {
		x.Delete(int64(rng.Intn(80)))
	}

	y := NewIndex(Config{K1: 1.4, B: 0.6})
	y.Restore(x.Snapshot())

	var bx, by bytes.Buffer
	if err := x.DumpPostings(&bx); err != nil {
		t.Fatal(err)
	}
	if err := y.DumpPostings(&by); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bx.Bytes(), by.Bytes()) {
		t.Fatalf("canonical dumps differ:\n%s\n---\n%s", bx.String(), by.String())
	}
	for _, q := range []string{"alpha", "beta gamma", "theta alpha zeta", "delta delta"} {
		a, b := x.Search(q, 10, nil), y.Search(q, 10, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %q: %v vs %v", q, a, b)
		}
	}
}

// Lock-free readers vs a writer under the race detector. IDs 1000-1003
// are replaced over and over and never deleted, and every version of
// them holds "pinned": a search for it must return each of the four
// exactly once, whichever version it caught. No search may return an ID
// twice. The writer also keeps adding IDs, so the document table is
// re-published under the readers.
func TestConcurrentSearchAndSet(t *testing.T) {
	x := NewIndex(Config{})
	pinned := []int64{1000, 1001, 1002, 1003}
	for _, id := range pinned {
		x.Set(id, "pinned common", nil)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := map[int64]bool{}
				for _, s := range x.Search(fmt.Sprintf("word%d common", r), 5000, nil) {
					if seen[s.ID] {
						t.Errorf("id %d returned twice", s.ID)
						return
					}
					seen[s.ID] = true
				}
				query := []string{"pinned", "pinned common", "filler pinned"}[r%3]
				got := x.Search(query, 5000, nil)
				var ids []int64
				for _, s := range got {
					if s.ID >= 1000 && s.ID <= 1003 {
						ids = append(ids, s.ID)
					}
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				if !reflect.DeepEqual(ids, pinned) {
					t.Errorf("query %q returned pinned ids %v, want each of %v once", query, ids, pinned)
					return
				}
				x.Stats()
			}
		}(r)
	}
	for i := 0; i < 6000; i++ {
		x.Set(pinned[i%4], fmt.Sprintf("pinned word%d common filler%d", i%8, i), nil)
		x.Set(int64(i%100), fmt.Sprintf("word%d common filler%d", i%8, i), nil)
		if i%17 == 0 {
			x.Delete(int64(i % 100))
		}
		if i%10 == 0 {
			x.Set(int64(2000+i), "common filler", nil)
		}
	}
	close(stop)
	wg.Wait()
}

func TestStats(t *testing.T) {
	x := NewIndex(Config{})
	x.Set(1, "one two three", nil)
	x.Set(2, "one", nil)
	x.Search("one", 5, nil)
	st := x.Stats()
	if st.Docs != 2 || st.Terms != 3 || st.Searches != 1 || st.PostingsScanned != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgDocLen != 2 {
		t.Fatalf("avg doc len %v, want 2", st.AvgDocLen)
	}
	if st.PostingsBytes != 4*postingBytes {
		t.Fatalf("postings bytes %d, want %d", st.PostingsBytes, 4*postingBytes)
	}
	if st.K1 != DefaultK1 || st.B != DefaultB {
		t.Fatalf("params %+v", st)
	}
}
