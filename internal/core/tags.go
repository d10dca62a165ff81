package core

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/filter"
)

// Per-vector metadata tags, stored as postings. A tag is a key=value
// pair; each distinct pair is interned once as a term with a dense
// ordinal. The store keeps, per term, the sorted list of global IDs
// carrying it (its posting list) and, per ID, the sorted list of its
// term ordinals — so it can answer both "does this ID match" (under the
// graph beam) and "which IDs match, and how many" (the filter planner,
// see Engine.scanBeatsBeam). The engine's locator, which tagging
// builds, turns a posting into the ID's live row, so a posting can be
// scored without a graph. An engine that never sets a tag allocates
// none of this.
//
// Writers are serialized by mu. Readers never hold it while they work:
// a compile copies the posting slice headers it needs under the read
// lock and then walks them freely, because a writer only ever appends
// beyond a published length or installs a fresh copy; per-ID entries
// are immutable values in a sync.Map, so the predicate under the beam
// takes no lock at all.
type tagStore struct {
	mu    sync.RWMutex
	ord   map[tagTerm]uint32 // term -> ordinal
	names []tagTerm          // ordinal -> term; append-only
	posts [][]int64          // ordinal -> ascending IDs carrying the term

	ids sync.Map // int64 -> *idEntry

	tagged   atomic.Int64 // IDs carrying tags
	postings atomic.Int64 // entries across all posting lists
}

// tagTerm is one interned key=value pair. Terms live until the next
// RestoreTags, also after their last posting is gone, so an ordinal
// never changes meaning under a compiled filter.
type tagTerm struct{ key, val string }

// idEntry is what the store holds for one tagged global ID: its tags as
// sorted term ordinals. Entries are immutable once published; a change
// installs a new one.
type idEntry struct {
	terms []uint32
}

func newTagStore() *tagStore { return &tagStore{} }

func (t *tagStore) entry(id int64) *idEntry {
	if v, ok := t.ids.Load(id); ok {
		return v.(*idEntry)
	}
	return nil
}

// intern returns the ordinal of key=val, assigning the next one to a
// pair not seen before. Caller holds mu.
func (t *tagStore) intern(key, val string) uint32 {
	term := tagTerm{key, val}
	if o, ok := t.ord[term]; ok {
		return o
	}
	if t.ord == nil {
		t.ord = make(map[tagTerm]uint32)
	}
	o := uint32(len(t.names))
	t.ord[term] = o
	t.names = append(t.names, term)
	t.posts = append(t.posts, nil)
	return o
}

// post adds id to term o's posting list. Ascending IDs — bulk loads,
// restores and fresh upserts — append in amortised O(1) into capacity no
// reader's slice covers; an ID below the current tail installs a copy,
// because readers may be walking the published one. Caller holds mu.
func (t *tagStore) post(o uint32, id int64) {
	p := t.posts[o]
	if n := len(p); n == 0 || p[n-1] < id {
		t.posts[o] = append(p, id)
	} else {
		i, found := slices.BinarySearch(p, id)
		if found {
			return
		}
		np := make([]int64, len(p)+1)
		copy(np, p[:i])
		np[i] = id
		copy(np[i+1:], p[i:])
		t.posts[o] = np
	}
	t.postings.Add(1)
}

// unpost removes id from term o's posting list, always into a copy: a
// truncated original would let the next append overwrite an element a
// reader still covers. Caller holds mu.
func (t *tagStore) unpost(o uint32, id int64) {
	p := t.posts[o]
	i, found := slices.BinarySearch(p, id)
	if !found {
		return
	}
	np := make([]int64, len(p)-1)
	copy(np, p[:i])
	copy(np[i:], p[i+1:])
	t.posts[o] = np
	t.postings.Add(-1)
}

// set replaces id's tags (none removes them). Caller holds mu.
func (t *tagStore) set(id int64, tags map[string]string) {
	var terms []uint32
	if len(tags) > 0 {
		terms = make([]uint32, 0, len(tags))
		for k, v := range tags {
			terms = append(terms, t.intern(k, v))
		}
		slices.Sort(terms)
	}
	var had []uint32
	if old := t.entry(id); old != nil {
		had = old.terms
	}
	for _, o := range had {
		if _, keeps := slices.BinarySearch(terms, o); !keeps {
			t.unpost(o, id)
		}
	}
	for _, o := range terms {
		if _, has := slices.BinarySearch(had, o); !has {
			t.post(o, id)
		}
	}
	switch {
	case len(had) == 0 && len(terms) > 0:
		t.tagged.Add(1)
	case len(had) > 0 && len(terms) == 0:
		t.tagged.Add(-1)
	}
	if len(terms) == 0 {
		t.ids.Delete(id)
	} else {
		t.ids.Store(id, &idEntry{terms: terms})
	}
}

// forget drops the tags and postings of ids that left the index for
// good.
func (t *tagStore) forget(ids []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.set(id, nil)
	}
}

// tagsOf rebuilds the tag map e stands for. Caller holds mu (read).
func (t *tagStore) tagsOf(e *idEntry) map[string]string {
	m := make(map[string]string, len(e.terms))
	for _, o := range e.terms {
		m[t.names[o].key] = t.names[o].val
	}
	return m
}

// tagFilter is a filter expression compiled against the term table: per
// conjunct the ordinals of the values some ID carries, plus the posting
// lists of the conjunct with the fewest candidates. It describes the
// store as of the compile — a value no ID carried then has no ordinal
// in it.
type tagFilter struct {
	t *tagStore
	// ords holds every conjunct's ordinals back to back, each run
	// sorted; ends[i] is where conjunct i's run stops.
	ords []uint32
	ends []int
	// posts are the posting lists of the smallest conjunct as published
	// at the compile and count their summed length: every ID matching
	// the filter then is among them, so count bounds the matches from
	// above (zero when a conjunct names only unknown terms).
	posts [][]int64
	count int
}

// compile resolves f against the term table into tf, reusing tf's
// slices. f must not be empty.
func (t *tagStore) compile(f *filter.Expr, tf *tagFilter) {
	tf.t, tf.ords, tf.ends, tf.posts = t, tf.ords[:0], tf.ends[:0], tf.posts[:0]
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo, hi := 0, 0 // the smallest conjunct's run in ords
	for i := 0; i < f.Len(); i++ {
		term := f.Term(i)
		start, n := len(tf.ords), 0
		for _, v := range term.Values {
			if o, ok := t.ord[tagTerm{term.Key, v}]; ok {
				tf.ords = append(tf.ords, o)
				n += len(t.posts[o])
			}
		}
		slices.Sort(tf.ords[start:])
		tf.ends = append(tf.ends, len(tf.ords))
		if i == 0 || n < tf.count {
			tf.count, lo, hi = n, start, len(tf.ords)
		}
	}
	for _, o := range tf.ords[lo:hi] {
		tf.posts = append(tf.posts, t.posts[o])
	}
}

// match reports whether id's current tags satisfy the filter. It takes
// no lock and is safe for concurrent use.
func (tf *tagFilter) match(id int64) bool {
	e := tf.t.entry(id)
	return e != nil && tf.matchTerms(e.terms)
}

// matchTerms reports whether every conjunct has one of its ordinals in
// the sorted list terms.
func (tf *tagFilter) matchTerms(terms []uint32) bool {
	lo := 0
	for _, hi := range tf.ends {
		if !intersects(terms, tf.ords[lo:hi]) {
			return false
		}
		lo = hi
	}
	return true
}

// intersects reports whether two sorted lists share an element.
func intersects(a, b []uint32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// SetTags attaches metadata tags to a global ID (replacing any previous
// tags); nil or empty tags remove the entry. The map is not retained.
// Safe for concurrent use with searches. Tags may be set before the ID
// has a vector; it starts matching filtered searches once it does.
func (e *Engine) SetTags(id int64, tags map[string]string) {
	if len(tags) > 0 {
		e.locate()
	}
	t := e.tags
	t.mu.Lock()
	defer t.mu.Unlock()
	t.set(id, tags)
}

// Tags returns id's tags as a fresh map, or nil when untagged.
func (e *Engine) Tags(id int64) map[string]string {
	t := e.tags
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ent := t.entry(id); ent != nil && len(ent.terms) > 0 {
		return t.tagsOf(ent)
	}
	return nil
}

// TagCount returns the number of IDs carrying tags.
func (e *Engine) TagCount() int { return int(e.tags.tagged.Load()) }

// TagsSnapshot returns a point-in-time copy of all tags, rebuilt from
// the term lists; the durability layer persists it alongside each
// snapshot. Tag writes wait while it is taken.
func (e *Engine) TagsSnapshot() map[int64]map[string]string {
	t := e.tags
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int64]map[string]string, t.tagged.Load())
	t.ids.Range(func(k, v any) bool {
		if ent := v.(*idEntry); len(ent.terms) > 0 {
			out[k.(int64)] = t.tagsOf(ent)
		}
		return true
	})
	return out
}

// RestoreTags replaces the whole tag store — the recovery half of
// TagsSnapshot, called after LoadEngine before WAL tail replay. The
// store is emptied in place (the tags pointer is never reassigned) so
// it stays safe against concurrent readers, and refilled in ascending
// ID order, which is the order posting lists append in.
func (e *Engine) RestoreTags(tags map[int64]map[string]string) {
	if len(tags) > 0 {
		e.locate()
	}
	t := e.tags
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids.Range(func(k, _ any) bool {
		t.ids.Delete(k)
		return true
	})
	t.ord, t.names, t.posts = nil, nil, nil
	t.tagged.Store(0)
	t.postings.Store(0)
	ids := make([]int64, 0, len(tags))
	for id := range tags {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t.set(id, tags[id])
	}
}

// TagsDump writes the canonical rendering of the tag store: every term
// that has postings with its IDs, sorted by key then value, then every
// tagged ID with its terms. It does not depend on the order tags were
// set in (term ordinals do), so crash-recovery tests compare it byte for
// byte, as they do LexicalDump.
func (e *Engine) TagsDump(w io.Writer) error {
	t := e.tags
	t.mu.RLock()
	defer t.mu.RUnlock()
	bw := bufio.NewWriter(w)
	ords := make([]uint32, 0, len(t.names))
	for o := range t.names {
		if len(t.posts[o]) > 0 {
			ords = append(ords, uint32(o))
		}
	}
	byTerm := func(a, b uint32) int {
		return cmp.Or(cmp.Compare(t.names[a].key, t.names[b].key), cmp.Compare(t.names[a].val, t.names[b].val))
	}
	slices.SortFunc(ords, byTerm)
	for _, o := range ords {
		fmt.Fprintf(bw, "%q=%q\t%v\n", t.names[o].key, t.names[o].val, t.posts[o])
	}
	var ids []int64
	t.ids.Range(func(k, v any) bool {
		if len(v.(*idEntry).terms) > 0 {
			ids = append(ids, k.(int64))
		}
		return true
	})
	slices.Sort(ids)
	for _, id := range ids {
		terms := slices.Clone(t.entry(id).terms)
		slices.SortFunc(terms, byTerm)
		fmt.Fprintf(bw, "%d", id)
		for _, o := range terms {
			fmt.Fprintf(bw, "\t%q=%q", t.names[o].key, t.names[o].val)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// TagStats are the tag store's sizes and the filter planner's decision
// counters, for /varz.
type TagStats struct {
	Terms    int   // distinct key=value pairs interned
	Postings int64 // entries across all posting lists
	// Scans and Beams count filtered searches answered by scoring the
	// candidate rows exactly and by the graph beam; Candidates sums the
	// candidate counts the decisions were made on.
	Scans, Beams, Candidates int64
}

// TagStats snapshots the tag store and planner counters.
func (e *Engine) TagStats() TagStats {
	t := e.tags
	t.mu.RLock()
	terms := len(t.names)
	t.mu.RUnlock()
	return TagStats{
		Terms:      terms,
		Postings:   t.postings.Load(),
		Scans:      e.plan.scans.Load(),
		Beams:      e.plan.beams.Load(),
		Candidates: e.plan.candidates.Load(),
	}
}
