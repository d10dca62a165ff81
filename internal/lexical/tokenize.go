// Package lexical implements the keyword half of hybrid retrieval: a
// deterministic unicode tokenizer and an in-memory inverted index with
// BM25 scoring. The index follows the same concurrency discipline as
// the engine's tagStore — readers are lock-free over immutable
// published values, a single mutex serializes writers — so the hybrid
// search hot path can score while upserts stream in.
//
// Layout. A document ID is given a dense uint32 ordinal at its first Set
// and keeps it. A posting is 16 bytes (version, ordinal, tf), appended
// to its term's list and never removed. The document table is a slice
// of atomic pointers indexed by ordinal, each to the document's current
// immutable entry (ID, version, token count, text, vector) or nil after
// a Delete; a posting counts only while its version is the entry's.
// Search resolves a posting with one array index, adds scores into a
// pooled []float64 indexed by ordinal (a touched-ordinal list resets
// it), and keeps the top k in a k-sized heap: no map, no sort over
// every hit, nothing sized by the corpus allocated per query.
//
// Durability is owned by the store layer: raw document text rides a
// dedicated WAL record and a CRC-checked text-<seq>.json checkpoint
// sidecar, and the index is rebuilt by re-tokenizing on recovery. The
// tokenizer is therefore part of the durability contract: it must be a
// pure function of its input so a rebuilt index scores identically to
// the one that crashed.
package lexical

import (
	"strings"
	"unicode"
)

// MaxTermRunes bounds a single term. Runs of letters/digits longer than
// this are split deterministically, so adversarial inputs (one giant
// token) cannot create unbounded map keys.
const MaxTermRunes = 64

// Tokenize lowercases s and segments it into maximal runs of unicode
// letters and digits; everything else is a separator. It never emits an
// empty term, and it is stable under re-tokenization:
// Tokenize(strings.Join(Tokenize(s), " ")) == Tokenize(s).
func Tokenize(s string) []string {
	var out []string
	var b strings.Builder
	n := 0
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
			n = 0
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			n++
			if n == MaxTermRunes {
				flush()
			}
			continue
		}
		flush()
	}
	flush()
	return out
}

// DefaultStopwords is the optional English stopword set collections can
// opt into. Deliberately tiny: stopword removal mostly trims postings
// for glue words; recall-critical terms must never appear here.
var DefaultStopwords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
	"if", "in", "into", "is", "it", "no", "not", "of", "on", "or",
	"such", "that", "the", "their", "then", "there", "these", "they",
	"this", "to", "was", "will", "with",
}

// stopSet builds the filter set; empty input disables filtering.
func stopSet(words []string) map[string]struct{} {
	if len(words) == 0 {
		return nil
	}
	m := make(map[string]struct{}, len(words))
	for _, w := range words {
		for _, t := range Tokenize(w) {
			m[t] = struct{}{}
		}
	}
	return m
}
